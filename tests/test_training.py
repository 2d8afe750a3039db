import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ikno.model
import ikno.ops_ad
import ikno.training
from ikno.data import CSinesSpec, gen_csines
from ikno.errors import (
    EmptyDatasetError,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonpositiveTauError,
)
from ikno.experiments import RunSpec, load_checkpoint, run_training
from ikno.kernels import PointCloud
from ikno.model import ModelConfig, init_params
from ikno.reports import report_schema, validate_report
from ikno.training import (
    OptimizerConfig,
    OptimizerState,
    TrainConfig,
    batch_loss,
    evaluate,
    grad_analytic,
    grad_fd,
    median_rel_l1,
    mse_mae,
    optimizer_step,
    relative_l2_loss,
    temporal_reconstruct,
    temporal_target,
    train_model,
    zscore_apply,
    zscore_fit,
    zscore_invert,
)


class TestZscore:
    def test_constant_channel_maps_to_zero(self):
        stats = zscore_fit([np.full((5, 1), 3.7)])
        assert np.allclose(zscore_apply(stats, np.full((4, 1), 3.7)), 0.0)

    def test_plus_minus_one(self):
        stats = zscore_fit([np.array([[-1.0], [1.0]])])
        assert np.isclose(stats.mu[0], 0.0)
        assert np.isclose(stats.sigma[0], 1.0)
        got = zscore_apply(stats, np.array([[-1.0], [1.0]]))
        assert np.allclose(got, [[-1.0], [1.0]], atol=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        fields = [rng.standard_normal((6, 2)) for _ in range(3)]
        stats = zscore_fit(fields)
        x = rng.standard_normal((4, 2))
        back = zscore_invert(stats, zscore_apply(stats, x))
        assert np.abs(back - x).max() <= 1e-12 * max(1.0, np.abs(x).max())


class TestRelativeL2:
    def test_exact_match_zero(self):
        y = np.array([[1.0], [2.0]])
        assert relative_l2_loss(y, y) == 0.0

    def test_zero_prediction_gives_one(self):
        y = np.array([[3.0], [4.0]])
        assert np.isclose(relative_l2_loss(y, np.zeros((2, 1))), 1.0)

    def test_hand_arithmetic(self):
        y = np.array([[3.0], [4.0]])
        assert np.isclose(relative_l2_loss(y, np.array([[3.0], [0.0]])), 4.0 / 5.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((5, 2))
        yh = rng.standard_normal((5, 2))
        a = relative_l2_loss(y, yh)
        b = relative_l2_loss(7.3 * y, 7.3 * yh)
        assert np.isclose(a, b)

    def test_zero_target_sentinel(self):
        out = relative_l2_loss(np.zeros((3, 1)), np.ones((3, 1)))
        assert np.isnan(out)


class TestTemporal:
    def test_direct(self):
        assert temporal_target("direct", 1.0, 3.0, 2.0) == 3.0

    def test_derivative_formula(self):
        assert temporal_target("derivative", 1.0, 3.0, 2.0) == 1.0
        assert temporal_reconstruct("derivative", 1.0, 1.0, 2.0) == 3.0

    def test_residual_zero_at_fixed_point(self):
        assert temporal_target("residual", 2.5, 2.5, 1.0) == 0.0

    @pytest.mark.parametrize("mode", ["direct", "residual", "derivative"])
    @settings(max_examples=30, deadline=None)
    @given(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 3.0))
    def test_round_trip(self, mode, u_now, u_future, tau):
        t = temporal_target(mode, u_now, u_future, tau)
        back = temporal_reconstruct(mode, u_now, t, tau)
        assert np.isclose(back, u_future, atol=1e-12)

    def test_nonpositive_tau(self):
        with pytest.raises(NonpositiveTauError):
            temporal_target("derivative", 1.0, 2.0, 0.0)


class TestGradFd:
    def test_quadratic(self):
        theta = np.array([0.3, -1.2, 2.0])
        g = grad_fd(lambda p: 0.5 * float(p @ p), theta)
        assert np.abs(g - theta).max() <= 1e-8

    def test_constant(self):
        g = grad_fd(lambda p: 1.0, np.ones(4))
        assert np.abs(g).max() <= 1e-10

    def test_small_gradient_of_unit_loss(self):
        # gradients near the 1e-6 floor of the gradient suite, on a loss of ~1:
        # a second-order stencil's round-off reads about 4e-4 here
        x = np.linspace(-1.0, 1.0, 41)
        g = grad_fd(lambda p: 1.0 + 1e-7 * float(np.sin(p).sum()), x)
        exact = 1e-7 * np.cos(x)
        assert np.max(np.abs(g - exact) / np.abs(exact)) <= 2e-4


class TestGradAnalytic:
    def test_duplicated_batch_doubles_gradient(self):
        cfg = ModelConfig(dim=1, grid_l=3, hidden=4, branches=1)
        pv = init_params(cfg, 0)
        rng = np.random.default_rng(1)
        cloud = PointCloud(rng.uniform(-1, 1, (4, 1)), channels=rng.uniform(-1, 1, (4, 1)))
        queries = PointCloud(rng.uniform(-1, 1, (3, 1)))
        target = rng.uniform(-1, 1, (3, 1))
        item = (cloud, queries, target)
        g1 = grad_analytic(cfg, pv, [item])
        g2 = grad_analytic(cfg, pv, [item, item])
        assert np.abs(g2 - 2.0 * g1).max() <= 1e-12 * max(1.0, np.abs(g2).max())

    def test_alpha_only_probe_matches_fd(self):
        cfg = ModelConfig(dim=1, grid_l=3, hidden=4, branches=1)
        pv = init_params(cfg, 2)
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.uniform(-1, 1, (4, 1)), channels=rng.uniform(-1, 1, (4, 1)))
        queries = PointCloud(rng.uniform(-1, 1, (3, 1)))
        target = rng.uniform(-1, 1, (3, 1))
        batch = [(cloud, queries, target)]
        g = grad_analytic(cfg, pv, batch)
        from ikno.model import alpha_indices

        k = alpha_indices(cfg, pv)[0]

        def closure(values):
            probe = pv.copy()
            probe.values = values
            return batch_loss(cfg, probe, batch)

        g_fd = grad_fd(closure, pv.values)
        assert abs(g[k] - g_fd[k]) <= 1e-5 * max(1e-6, abs(g_fd[k]))


    @pytest.mark.parametrize("variant", ["tp", "vanilla"])
    def test_one_resolvent_build_per_branch_per_batch(self, monkeypatch, variant):
        """Also after inference with the same parameters has cached their
        operators: a gradient-recording step never reads or fills that cache."""
        cfg = ModelConfig(dim=2, grid_l=4, hidden=4, branches=3, variant=variant)
        pv = init_params(cfg, 0)
        rng = np.random.default_rng(4)
        batch = [
            (
                PointCloud(rng.uniform(-1, 1, (5, 2)), channels=rng.uniform(-1, 1, (5, 1))),
                PointCloud(rng.uniform(-1, 1, (3, 2))),
                rng.uniform(-1, 1, (3, 1)),
            )
            for _ in range(4)
        ]
        ikno.model._build_operator.cache_clear()
        ikno.model.forward(cfg, pv, *batch[0][:2])
        cached = ikno.model._build_operator.cache_info()
        assert cached.currsize == 3
        builds = []
        for name in ("build_tp", "build_vanilla"):
            real = getattr(ikno.ops_ad, name)

            def counted(*args, real=real, name=name):
                builds.append(name)
                return real(*args)

            monkeypatch.setattr(ikno.ops_ad, name, counted)
        ikno.training.loss_and_grad(cfg, pv, batch)
        assert builds == [f"build_{variant}"] * 3
        assert ikno.model._build_operator.cache_info() == cached


class TestOptimizer:
    def test_zero_grad_no_decay_fixed_point(self):
        cfg = OptimizerConfig(weight_decay=0.0, total_steps=10)
        state = OptimizerState.fresh(3)
        params = np.array([1.0, -2.0, 0.5])
        _, new_params, _ = optimizer_step(state, params, np.zeros(3), cfg)
        assert np.array_equal(new_params, params)

    def test_global_norm_clip(self):
        cfg = OptimizerConfig(clip=1.0, weight_decay=0.0, total_steps=10)
        state = OptimizerState.fresh(1)
        grad = np.array([10.0])
        new_state, _, _ = optimizer_step(state, np.zeros(1), grad, cfg)
        # first moment reflects the clipped gradient: 0.1 * (1 - beta1)
        assert np.isclose(new_state.m[0], 0.1 * 1.0)

    def test_hand_computed_single_step(self):
        cfg = OptimizerConfig(
            lr0=0.1, beta1=0.5, beta2=0.5, eps=0.0, weight_decay=0.0,
            clip=0.0, total_steps=1,
        )
        state = OptimizerState.fresh(1)
        params = np.array([1.0])
        grad = np.array([2.0])
        _, new_params, lr = optimizer_step(state, params, grad, cfg)
        # mhat = vhat-corrected moments both equal the raw gradient stats
        m = 0.5 * 2.0 / (1 - 0.5)
        v = 0.5 * 4.0 / (1 - 0.5)
        want = 1.0 - lr * m / np.sqrt(v)
        assert np.isclose(new_params[0], want)

    def test_nonfinite_gradient_raises(self):
        cfg = OptimizerConfig(total_steps=10)
        with pytest.raises(NonFiniteGradientError):
            optimizer_step(OptimizerState.fresh(1), np.zeros(1), np.array([np.nan]), cfg)

    def test_cosine_schedule_endpoints(self):
        cfg = OptimizerConfig(lr0=1e-2, total_steps=100, weight_decay=0.0)
        state = OptimizerState.fresh(1)
        _, _, lr_first = optimizer_step(state, np.zeros(1), np.ones(1), cfg)
        state = OptimizerState(step=100, m=np.zeros(1), v=np.zeros(1))
        _, _, lr_last = optimizer_step(state, np.zeros(1), np.ones(1), cfg)
        assert np.isclose(lr_first, 1e-2)
        assert np.isclose(lr_last, 1e-4)


class TestMedianRelL1:
    def test_perfect(self):
        y = [np.ones((4, 1))] * 3
        assert median_rel_l1(y, y) == 0.0

    def test_odd_count_median(self):
        truths = [np.ones((1, 1)) for _ in range(3)]
        preds = [np.array([[1.1]]), np.array([[1.2]]), np.array([[1.3]])]
        assert np.isclose(median_rel_l1(preds, truths), 20.0)

    def test_even_count_mean_of_middles(self):
        truths = [np.ones((1, 1)) for _ in range(2)]
        preds = [np.array([[1.1]]), np.array([[1.2]])]
        assert np.isclose(median_rel_l1(preds, truths), 15.0)

    def test_sample_order_invariant(self):
        rng = np.random.default_rng(4)
        truths = [rng.standard_normal((5, 2)) + 3 for _ in range(5)]
        preds = [t + rng.standard_normal((5, 2)) * 0.1 for t in truths]
        a = median_rel_l1(preds, truths)
        b = median_rel_l1(preds[::-1], truths[::-1])
        assert np.isclose(a, b)

    def test_zero_target_excluded_with_warning(self):
        truths = [np.zeros((2, 1)), np.ones((2, 1))]
        preds = [np.ones((2, 1)), np.ones((2, 1))]
        with pytest.warns(UserWarning):
            out = median_rel_l1(preds, truths)
        assert np.isclose(out, 0.0)

    def test_mse_mae(self):
        truths = [np.array([[1.0], [3.0]])]
        preds = [np.array([[2.0], [1.0]])]
        mse, mae = mse_mae(preds, truths)
        assert np.isclose(mse, (1.0 + 4.0) / 2)
        assert np.isclose(mae, (1.0 + 2.0) / 2)

    def test_evaluate_rejects_empty_samples(self):
        cfg = ModelConfig(dim=1, grid_l=4, hidden=2, branches=1)
        with pytest.raises(EmptyDatasetError):
            evaluate(cfg, init_params(cfg, 0), [])


class TestTrainLoop:
    def _tiny_problem(self, seed=0):
        cfg = ModelConfig(dim=1, grid_l=3, hidden=4, branches=1)
        rng = np.random.default_rng(seed)
        pool = []
        for _ in range(6):
            cloud = PointCloud(
                rng.uniform(-1, 1, (4, 1)), channels=rng.uniform(-1, 1, (4, 1))
            )
            queries = PointCloud(rng.uniform(-1, 1, (3, 1)))
            target = rng.uniform(-1, 1, (3, 1))
            pool.append((cloud, queries, target))
        return cfg, pool

    def test_bit_identical_trajectories(self):
        cfg, pool = self._tiny_problem()
        tc = TrainConfig(steps=10, batch_size=2, seed=3)
        pv1, _, _, _ = train_model(cfg, init_params(cfg, 1), pool, tc)
        pv2, _, _, _ = train_model(cfg, init_params(cfg, 1), pool, tc)
        assert np.array_equal(pv1.values, pv2.values)

    def test_alpha_clamped_negative(self):
        from ikno.model import alpha_indices
        from ikno.training import ALPHA_CLAMP

        cfg, pool = self._tiny_problem()
        tc = TrainConfig(steps=15, batch_size=2, seed=4)
        pv, _, _, _ = train_model(cfg, init_params(cfg, 2), pool, tc)
        assert np.all(pv.values[alpha_indices(cfg, pv)] <= ALPHA_CLAMP)

    def test_history_fields_and_log(self, tmp_path):
        cfg, pool = self._tiny_problem()
        log = tmp_path / "log.jsonl"
        tc = TrainConfig(steps=5, batch_size=2, seed=5, log_path=str(log))
        _, _, hist, _ = train_model(cfg, init_params(cfg, 3), pool, tc)
        assert len(hist) == 5
        for rec in hist:
            assert set(rec) == {"step", "lr", "loss", "grad_norm", "clipped", "wall_time_s"}
        import json

        import jsonschema

        line_schema = {"$defs": report_schema()["$defs"], "$ref": "#/$defs/train_log_line"}
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            jsonschema.validate(json.loads(line), line_schema)
        assert json.loads(lines[0])["step"] == 0
        with pytest.raises(jsonschema.ValidationError):  # no keys beyond the record's
            jsonschema.validate({**json.loads(lines[0]), "extra": 1}, line_schema)

    @pytest.mark.parametrize("clip, expected", [(1e-12, True), (0.0, False)])
    def test_clipped_flag(self, tmp_path, clip, expected):
        # a tiny clip norm clips every step; clip = 0 switches clipping off
        import json

        cfg, pool = self._tiny_problem()
        log = tmp_path / "log.jsonl"
        tc = TrainConfig(
            steps=4, batch_size=2, seed=5, log_path=str(log),
            optimizer=OptimizerConfig(clip=clip),
        )
        _, _, hist, _ = train_model(cfg, init_params(cfg, 3), pool, tc)
        assert [rec["clipped"] for rec in hist] == [expected] * 4
        assert all(rec["grad_norm"] > 1e-12 for rec in hist)
        logged = [json.loads(line)["clipped"] for line in log.read_text().splitlines()]
        assert logged == [expected] * 4

    def test_resume_matches_uninterrupted(self):
        cfg, pool = self._tiny_problem()
        tc = TrainConfig(steps=12, batch_size=2, seed=6)
        pv_full, _, _, _ = train_model(cfg, init_params(cfg, 4), pool, tc)
        pv_a, state, _, _ = train_model(
            cfg, init_params(cfg, 4), pool, tc, stop_step=7
        )
        pv_b, _, _, _ = train_model(cfg, pv_a, pool, tc, state=state, start_step=7)
        assert np.array_equal(pv_full.values, pv_b.values)

    @pytest.mark.parametrize(
        "target, error, reason",
        [
            (None, None, "completed"),
            ("loss_and_grad", NonFiniteLossError, "nonfinite_loss"),
            ("optimizer_step", NonFiniteGradientError, "nonfinite_gradient"),
        ],
        ids=["completed", "loss", "gradient"],
    )
    def test_stop_reason(self, monkeypatch, target, error, reason):
        cfg, pool = self._tiny_problem()
        if target is not None:
            real = getattr(ikno.training, target)
            calls = {"n": 0}

            def fails_at_step_1(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] == 2:
                    raise error("injected")
                return real(*args, **kwargs)

            monkeypatch.setattr(ikno.training, target, fails_at_step_1)
        tc = TrainConfig(steps=3, batch_size=2, seed=8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, state, hist, got = train_model(cfg, init_params(cfg, 6), pool, tc)
        assert got == reason
        assert len(hist) == state.step == (3 if target is None else 1)

    def test_caller_optimizer_config_unchanged(self):
        cfg, pool = self._tiny_problem()
        opt = OptimizerConfig(total_steps=1000)
        tc = TrainConfig(steps=3, batch_size=2, seed=7, optimizer=opt)
        _, _, hist, _ = train_model(cfg, init_params(cfg, 5), pool, tc)
        assert opt == OptimizerConfig(total_steps=1000)
        # the schedule still spans the run's own step budget
        assert hist[-1]["lr"] == ikno.training._cosine_lr(OptimizerConfig(total_steps=3), 2)


# One loss_and_grad per variant at d=2, L=32, batch 4 of 256-point clouds,
# 3 branches, mlp: the cross-kernel factors are 32 x 1024, long enough that
# OpenBLAS splits a level-1 BLAS reduction over them across threads.
_THREAD_RUN = """
import sys
import numpy as np
from ikno.kernels import PointCloud
from ikno.model import ModelConfig, init_params
from ikno.training import loss_and_grad
out = {}
for variant in ("vanilla", "tp", "truncated"):
    cfg = ModelConfig(dim=2, grid_l=32, hidden=16, branches=3, processor="mlp",
                      variant=variant, truncation_order=2)
    rng = np.random.default_rng(1)
    batch = [(PointCloud(rng.uniform(-1, 1, (256, 2)), channels=rng.uniform(-1, 1, (256, 1))),
              PointCloud(rng.uniform(-1, 1, (256, 2))), rng.uniform(-1, 1, (256, 1)))
             for _ in range(4)]
    loss, grad = loss_and_grad(cfg, init_params(cfg, 0), batch)
    out[variant] = np.append(grad, loss)
np.savez(sys.argv[1], **out)
"""


def test_loss_and_grad_bit_identical_across_blas_thread_counts(tmp_path):
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env.pop("IKNO_THREADS", None)
        path = tmp_path / f"threads{threads}.npz"
        subprocess.run([sys.executable, "-c", _THREAD_RUN, str(path)], env=env, check=True)
        runs.append(np.load(path))
    for variant in ("vanilla", "tp", "truncated"):
        assert np.array_equal(runs[0][variant], runs[1][variant]), variant


class TestRunTraining:
    @pytest.mark.parametrize("field", ["batch_size", "checkpoint_every"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_spec_rejects_empty_counts(self, field, value):
        # checkpoint_every 0 once made run_training loop without applying a step
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            RunSpec(model=ModelConfig(dim=2, grid_l=4, hidden=4), **{field: value})

    def test_spec_rejects_negative_steps(self):
        with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
            RunSpec(model=ModelConfig(dim=2, grid_l=4, hidden=4), steps=-1)

    @pytest.mark.parametrize(
        "target, error, reason",
        [
            ("loss_and_grad", NonFiniteLossError, "nonfinite_loss"),
            ("optimizer_step", NonFiniteGradientError, "nonfinite_gradient"),
        ],
        ids=["loss", "gradient"],
    )
    def test_nonfinite_loss_stops_and_checkpoints_applied_steps(
        self, tmp_path, monkeypatch, target, error, reason
    ):
        ds = gen_csines(CSinesSpec(num_samples=8, num_points=8, num_queries=8, seed=0))
        spec = RunSpec(
            model=ModelConfig(dim=2, grid_l=4, hidden=4, branches=1),
            steps=6, batch_size=2, test_count=2, checkpoint_every=2,
        )
        real = getattr(ikno.training, target)
        calls = {"n": 0}

        def fails_at_step_2(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise error("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(ikno.training, target, fails_at_step_2)
        with pytest.warns(UserWarning, match="step 2: injected; stopping early"):
            report = run_training(ds, spec, out_dir=tmp_path)
        validate_report(report)
        assert report["steps_done"] == 2
        assert report["stopped_early"] is True
        assert report["stop_reason"] == reason
        _, _, state, step_done, _, _ = load_checkpoint(tmp_path / "checkpoint")
        assert step_done == 2
        assert state.step == 2
        assert len((tmp_path / "train_log.jsonl").read_text().splitlines()) == 2
