"""The benchmark's workloads: inputs, the timed op and the correctness checks.

Every workload is driven in a closed loop by ``worker.py``: ``op`` runs one
unit of work and returns its result, ``accept`` inspects that result
outside the timed region, and ``checks`` runs after the timed loop.
Inputs are generated from the workload seed alone.

Import this module only after the thread pins in ``worker.py``: it
imports numpy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ikno import data, experiments, kernels, model, resolvent, training
from ikno.rng import Rng64

NUM_SAMPLES = 64
TEST_COUNT = 16
BATCH = 4
WARMUP_OPS = 2
LR0 = 1e-2
SCHEDULE_STEPS = 1000  # cosine schedule length; fixes lr, not the run length
GRAD_RTOL = 1e-5
# central-difference round-off: a loss of ~1 at 2**-52 over a 2e-6 step is ~1e-10,
# measured up to 6e-10; the smallest gradients checked are ~1e-6
GRAD_ATOL = 2e-9
ORACLE_RTOL = 1e-8

_INIT_SALT = 0x1E57_0001
_ORDER_SALT = 0x1E57_0002
_PROBE_SALT = 0x1E57_0003


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" | "infer"
    dataset: str  # "csines" | "poisson-gauss"
    points: int  # cloud size, also the query count
    config: model.ModelConfig

    def gen_data(self, seed: int) -> data.Dataset:
        if self.dataset == "csines":
            spec = data.CSinesSpec(
                num_samples=NUM_SAMPLES, num_points=self.points,
                num_queries=self.points, seed=seed,
            )
            return data.gen_csines(spec)
        spec = data.PoissonGaussSpec(
            num_samples=NUM_SAMPLES, num_points=self.points,
            num_queries=self.points, seed=seed,
        )
        return data.gen_poisson_gauss(spec)


def _config(grid_l: int, variant: str) -> model.ModelConfig:
    return model.ModelConfig(
        dim=2, grid_l=grid_l, hidden=16, branches=3, processor="mlp", variant=variant
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-csines-tp", "train", "csines", 64, _config(16, "tp")),
        Workload("train-grid32-vanilla", "train", "csines", 16, _config(32, "vanilla")),
        Workload("infer-poisson-L32", "infer", "poisson-gauss", 256, _config(32, "vanilla")),
    )
}


def _batch_order(n: int, seed: int):
    """Endless seeded epochs of batch index lists, as ``train_model`` draws."""
    rng = Rng64(seed ^ _ORDER_SALT)
    while True:
        epoch = list(range(n))
        rng.shuffle(epoch)
        for lo in range(0, n - BATCH + 1, BATCH):
            yield epoch[lo : lo + BATCH]


class TrainRun:
    """One op: loss_and_grad + optimizer_step + alpha clamp on a batch."""

    samples_per_op = BATCH

    def __init__(self, workload: Workload, seed: int):
        self.config = workload.config
        t0 = time.perf_counter()
        ds = workload.gen_data(seed)
        self.gen_s = time.perf_counter() - t0
        self.samples, _, _, _ = experiments.prepare_split(ds, TEST_COUNT)
        self.pv = model.init_params(self.config, seed ^ _INIT_SALT)
        self.init_pv = self.pv.copy()
        self.opt_cfg = training.OptimizerConfig(lr0=LR0, total_steps=SCHEDULE_STEPS)
        self.state = training.OptimizerState.fresh(self.pv.size)
        self.alpha_idx = model.alpha_indices(self.config, self.pv)
        self.order = _batch_order(len(self.samples), seed)
        self.first_batch = [self.samples[i] for i in next(_batch_order(len(self.samples), seed))]
        self.losses: list[float] = []

    def _step(self, pv, state, batch):
        loss_sum, grad = training.loss_and_grad(self.config, pv, batch)
        state, values, _ = training.optimizer_step(
            state, pv.values, grad / len(batch), self.opt_cfg
        )
        pv.values = values
        pv.values[self.alpha_idx] = np.minimum(pv.values[self.alpha_idx], training.ALPHA_CLAMP)
        return loss_sum / len(batch), state

    def warm_up(self) -> None:
        """Throwaway steps on copies, so the timed run starts from init."""
        pv, state = self.pv.copy(), training.OptimizerState.fresh(self.pv.size)
        for _ in range(WARMUP_OPS):
            _, state = self._step(pv, state, self.first_batch)

    def op(self):
        batch = [self.samples[i] for i in next(self.order)]
        loss, self.state = self._step(self.pv, self.state, batch)
        return loss

    def accept(self, loss) -> bool:
        self.losses.append(float(loss))
        return bool(np.isfinite(loss))

    def checks(self) -> list[str]:
        problems = []
        if not self.losses:
            return ["no training step completed"]
        if not all(np.isfinite(self.losses)):
            problems.append("a timed loss is not finite")
        tail = self.losses[-max(1, len(self.losses) // 10) :]
        if not np.mean(tail) < self.losses[0]:
            problems.append(
                f"mean loss of the last tenth {np.mean(tail):.6g} is not below "
                f"the first step's {self.losses[0]:.6g}"
            )
        problems.extend(self._gradient_check())
        return problems

    def _gradient_check(self) -> list[str]:
        """Analytic vs central-difference gradient of the first batch at init,
        on every branch alpha, one kernel scale and one MLP weight."""
        pv, batch = self.init_pv.copy(), self.first_batch
        _, grad = training.loss_and_grad(self.config, pv, batch)
        # the kernel segment stores [alpha, (log c, beta, gamma) per axis] per branch
        coords = list(self.alpha_idx) + [
            int(self.alpha_idx[0]) + 2,  # beta of branch 0, axis 0
            pv.segments["proc.w0"][0].start,
        ]

        def loss_at(sub):
            probe = pv.copy()
            probe.values[coords] = sub
            return training.batch_loss(self.config, probe, batch)

        fd = training.grad_fd(loss_at, pv.values[coords])
        problems = []
        for k, g_fd in zip(coords, fd):
            g = float(grad[k])
            if not abs(g - g_fd) <= GRAD_RTOL * abs(g_fd) + GRAD_ATOL:
                problems.append(
                    f"gradient of parameter {k}: analytic {g:.9g}, finite-difference {g_fd:.9g}"
                )
        return problems


class InferRun:
    """One op: model.forward on one held-out sample, cycling the test split."""

    samples_per_op = 1

    def __init__(self, workload: Workload, seed: int):
        self.config = workload.config
        self.seed = seed
        t0 = time.perf_counter()
        ds = workload.gen_data(seed)
        self.gen_s = time.perf_counter() - t0
        _, self.samples, _, _ = experiments.prepare_split(ds, TEST_COUNT)
        self.pv = model.init_params(self.config, seed ^ _INIT_SALT)
        self.next_index = 0
        self.current = 0
        self.first_outputs: dict[int, np.ndarray] = {}
        self.repeats = 0
        self.mismatches = 0

    def _forward(self, index: int) -> np.ndarray:
        cloud, queries, _ = self.samples[index]
        return model.forward(self.config, self.pv, cloud, queries)

    def warm_up(self) -> None:
        for k in range(WARMUP_OPS):
            self._forward(k % len(self.samples))

    def op(self):
        self.current = self.next_index
        self.next_index = (self.next_index + 1) % len(self.samples)
        return self._forward(self.current)

    def accept(self, out) -> bool:
        if not np.all(np.isfinite(out)):
            return False
        first = self.first_outputs.setdefault(self.current, out)
        if first is not out:
            self.repeats += 1
            self.mismatches += not np.array_equal(first, out)
        return True

    def checks(self) -> list[str]:
        problems = []
        if self.repeats == 0:
            problems.append("no test sample was forwarded twice")
        if self.mismatches:
            problems.append(f"{self.mismatches} repeated forwards were not bit-identical")
        problems.extend(self._resolvent_check())
        return problems

    def _resolvent_check(self) -> list[str]:
        """Each branch's factored resolvent against the dense inverse."""
        cfg = self.config
        grid = kernels.grid_linspace(cfg.dim, cfg.grid_l)
        probe = np.random.default_rng(self.seed ^ _PROBE_SALT).standard_normal(
            grid.axis_sizes + (cfg.hidden,)
        )
        problems = []
        for b, branch in enumerate(model.decode_kernel_params(cfg, self.pv).branches):
            grams = [
                kernels.axis_gram(p, pts)
                for p, pts in zip(branch.axis_params, grid.per_axis_points)
            ]
            fast = resolvent.apply_vanilla(resolvent.build_vanilla(grams, branch.alpha), probe)
            ref = resolvent.apply_naive_inverse(grams, branch.alpha, probe)
            err = float(np.abs(fast - ref).max() / np.abs(ref).max())
            if not err <= ORACLE_RTOL:
                problems.append(f"branch {b}: factored resolvent deviates by {err:.3e} from dense")
        return problems


def make_run(name: str, seed: int):
    workload = WORKLOADS[name]
    return (TrainRun if workload.kind == "train" else InferRun)(workload, seed)
