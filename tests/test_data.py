import hashlib
import json

import numpy as np
import pytest

import ikno.data
from ikno.data import (
    CSinesSpec,
    PoissonGaussSpec,
    bilinear_interp,
    gen_csines,
    gen_poisson_gauss,
    load_dataset,
    save_dataset,
    solve_poisson_fd,
    subsample_cloud,
)
from ikno.errors import TooManyRequestedError
from ikno.kernels import LatentGrid
from ikno.rng import Rng64, splitmix64
from ikno.verify import suite_poisson_solver


class TestRng:
    def test_splitmix64_pinned_stream(self):
        # first outputs from state 0 of the reference splitmix64 stream
        state, a = splitmix64(0)
        state, b = splitmix64(state)
        assert a == 0xE220A8397B1DCDAF
        assert b == 0x6E789E6AA1B965F4

    def test_same_seed_same_stream(self):
        r1, r2 = Rng64(123), Rng64(123)
        assert [r1.next_u64() for _ in range(5)] == [r2.next_u64() for _ in range(5)]

    def test_uniform_in_range(self):
        r = Rng64(7)
        x = r.uniform_array(1000, -1.0, 1.0)
        assert x.min() >= -1.0 and x.max() <= 1.0

    def test_child_streams_distinct(self):
        r = Rng64(9)
        assert r.child(0).next_u64() != r.child(1).next_u64()

    @pytest.mark.parametrize("seed", [0, 77, 2**64 - 5, 12345678901234])
    @pytest.mark.parametrize("shape", [(1000,), (7, 9), (0,), (3, 4, 5)])
    def test_uniform_array_matches_scalar_draws(self, seed, shape):
        # the vectorized draws against the scalar generator, element by
        # element, and the state each leaves behind
        fast, slow = Rng64(seed), Rng64(seed)
        x = fast.uniform_array(shape, -0.3, 0.7)
        ref = np.array([slow.uniform(-0.3, 0.7) for _ in range(int(np.prod(shape)))])
        assert x.shape == shape and x.tobytes() == ref.tobytes()
        assert fast.next_u64() == slow.next_u64()


@pytest.mark.parametrize(
    "gen, spec",
    [
        (gen_csines, CSinesSpec(num_samples=4, num_points=8, num_queries=8, seed=11)),
        (
            gen_poisson_gauss,
            PoissonGaussSpec(num_samples=4, solver_res=17, num_points=8, num_queries=8, seed=11),
        ),
    ],
    ids=["csines", "poisson-gauss"],
)
def test_regeneration_byte_identity(tmp_path, gen, spec):
    save_dataset(gen(spec), tmp_path / "a")
    save_dataset(gen(spec), tmp_path / "b")
    for name in ("input_coords", "input_values", "query_coords", "target_values"):
        da = (tmp_path / "a" / f"{name}.f64le").read_bytes()
        db = (tmp_path / "b" / f"{name}.f64le").read_bytes()
        assert hashlib.sha256(da).digest() == hashlib.sha256(db).digest()


class TestCSines:
    def test_single_mode_ratio(self):
        # u = sin(pi(x+1)/2) sin(pi(y+1)/2): f/u = pi^2 * 2 / 4 everywhere
        from ikno.data import _csines_fields

        amps = np.zeros(9)
        amps[0] = 1.0  # mode (1, 1)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-0.9, 0.9, (20, 2))
        u, f = _csines_fields(amps, pts, 3)
        assert np.allclose(f / u, np.pi**2 * 2 / 4)

    def test_boundary_vanishes(self):
        from ikno.data import _csines_fields

        rng = np.random.default_rng(1)
        amps = rng.uniform(-1, 1, 9)
        edge = np.array([[-1.0, 0.3], [1.0, -0.2], [0.5, -1.0], [0.1, 1.0]])
        u, _ = _csines_fields(amps, edge, 3)
        assert np.abs(u).max() <= 1e-12

    def test_laplacian_fd_spot_check(self):
        # high-order central differences on a fine stencil agree with -lap u = f
        from ikno.data import _csines_fields

        rng = np.random.default_rng(2)
        amps = rng.uniform(-1, 1, 9)
        pt = np.array([[0.17, -0.43]])
        h = 1e-3
        offsets = np.array([-2, -1, 0, 1, 2]) * h
        w = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
        lap = 0.0
        for axis in range(2):
            for o, c in zip(offsets, w):
                p = pt.copy()
                p[0, axis] += o
                lap += c * _csines_fields(amps, p, 3)[0][0]
        u, f = _csines_fields(amps, pt, 3)
        assert abs(-lap - f[0]) <= 1e-7

    def test_round_trip_load(self, tmp_path):
        spec = CSinesSpec(num_samples=3, num_points=6, num_queries=5, seed=2)
        ds = gen_csines(spec)
        save_dataset(ds, tmp_path / "ds")
        back = load_dataset(tmp_path / "ds")
        assert back.kind == ds.kind and back.dim == 2
        assert len(back.samples) == 3
        assert np.array_equal(back.samples[0].targets, ds.samples[0].targets)

    def test_load_rejects_unknown_kind(self, tmp_path):
        save_dataset(gen_csines(CSinesSpec(num_samples=2, num_points=4, num_queries=4)), tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["meta"]["kind"] = "toy-advection"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown dataset kind 'toy-advection'"):
            load_dataset(tmp_path)


class TestPoissonFd:
    def test_zero_source(self):
        u = solve_poisson_fd(np.zeros((17, 17)))
        assert np.abs(u).max() == 0.0

    def test_second_order_convergence(self):
        errs = []
        for h_res in (33, 65):
            x = np.linspace(-1, 1, h_res)
            xx, yy = np.meshgrid(x, x, indexing="ij")
            s = np.sin(np.pi * (xx + 1) / 2) * np.sin(np.pi * (yy + 1) / 2)
            f = 2 * (np.pi**2 / 4) * s
            u = solve_poisson_fd(f)
            errs.append(np.abs(u - s).max())
        ratio = errs[0] / errs[1]
        assert 3.5 <= ratio <= 4.5

    def test_discrete_residual(self):
        rng = np.random.default_rng(3)
        f = rng.standard_normal((33, 33))
        f[0, :] = f[-1, :] = f[:, 0] = f[:, -1] = 0.0
        u = solve_poisson_fd(f)
        h = 2.0 / 32
        lap = np.zeros_like(u)
        lap[1:-1, 1:-1] = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            - 4 * u[1:-1, 1:-1]
        ) / (h * h)
        res = np.linalg.norm((lap + f)[1:-1, 1:-1])
        assert res <= 1e-8 * np.linalg.norm(f)

    def test_suite_catches_misscaled_solve(self, monkeypatch):
        # the direct solve without its (2 / (n+1))^2 normalization
        def misscaled(f_grid):
            return solve_poisson_fd(f_grid) * ((f_grid.shape[0] - 1) / 2.0) ** 2

        monkeypatch.setattr(ikno.data, "solve_poisson_fd", misscaled)
        check = suite_poisson_solver(seed=0)
        assert not check.passed and check.max_deviation > 1.0


class TestPoissonGauss:
    def test_zero_amplitudes(self):
        spec = PoissonGaussSpec(
            num_samples=1, amp_lo=0.0, amp_hi=0.0, solver_res=17,
            num_points=5, num_queries=5, seed=4,
        )
        ds = gen_poisson_gauss(spec)
        assert np.abs(ds.samples[0].targets).max() <= 1e-12

    def test_narrow_source_peak_location(self):
        # solve directly for one narrow positive source; argmax near center
        res = 65
        x = np.linspace(-1, 1, res)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        cx, cy = 0.22, -0.31
        f = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 0.05**2))
        u = solve_poisson_fd(f)
        i, j = np.unravel_index(np.argmax(u), u.shape)
        h = 2.0 / (res - 1)
        assert abs(x[i] - cx) <= h and abs(x[j] - cy) <= h

    def test_generated_sample_shapes(self):
        spec = PoissonGaussSpec(
            num_samples=2, solver_res=33, num_points=10, num_queries=7, seed=5
        )
        ds = gen_poisson_gauss(spec)
        assert len(ds.samples) == 2
        s = ds.samples[0]
        assert s.input_cloud.coords.shape == (10, 2)
        assert s.queries.coords.shape == (7, 2)
        assert s.targets.shape == (7, 1)

    def test_bilinear_exact_on_linear_field(self):
        x = np.linspace(-1, 1, 9)
        xx, yy = np.meshgrid(x, x, indexing="ij")
        grid_vals = 2 * xx - 3 * yy + 0.5
        pts = np.random.default_rng(6).uniform(-1, 1, (20, 2))
        got = bilinear_interp(grid_vals, pts)
        want = 2 * pts[:, 0] - 3 * pts[:, 1] + 0.5
        assert np.abs(got - want).max() <= 1e-12


class TestSpecSizes:
    @pytest.mark.parametrize("spec", [CSinesSpec, PoissonGaussSpec])
    @pytest.mark.parametrize("field", ["num_samples", "num_points", "num_queries"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_empty_size_rejected(self, spec, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            spec(**{field: value})


@pytest.mark.parametrize(
    "lo, hi, field",
    [(0, 4, "sources_lo"), (-1, 4, "sources_lo"), (3, 1, "sources_hi"), (1, 0, "sources_hi")],
)
def test_source_count_range_rejected(lo, hi, field):
    with pytest.raises(ValueError, match=f"^{field} must be >= "):
        PoissonGaussSpec(sources_lo=lo, sources_hi=hi)


class TestSubsample:
    def test_full_grid_is_permutation(self):
        grid = LatentGrid(per_axis_points=(np.linspace(-1, 1, 3), np.linspace(-1, 1, 3)))
        cloud = subsample_cloud(grid.points(), 9, Rng64(0))
        got = sorted(map(tuple, cloud.coords))
        want = sorted(map(tuple, grid.points()))
        assert np.allclose(got, want)

    def test_single_point_reproducible(self):
        pts = np.linspace(-1, 1, 4)[:, None]
        a = subsample_cloud(pts, 1, Rng64(5))
        b = subsample_cloud(pts, 1, Rng64(5))
        assert np.array_equal(a.coords, b.coords)

    def test_too_many_requested(self):
        pts = np.linspace(-1, 1, 3)[:, None]
        with pytest.raises(TooManyRequestedError):
            subsample_cloud(pts, 4, Rng64(0))

    def test_continuous_mode_mean(self):
        cloud = subsample_cloud((2, -1.0, 1.0), 1000, Rng64(7))
        assert np.abs(cloud.coords.mean(axis=0)).max() < 0.1
