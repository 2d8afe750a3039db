"""Loss, normalization, gradients, optimizer, metrics and the training loop.

The analytic gradient runs reverse-mode through the whole model (including
the kernel parameters and the factored resolvents); the central
finite-difference routine is the independent oracle it is checked against.
Batch gradients use the mean-free sum convention: the gradient of the
summed per-sample relative-L2 loss.

``temporal_target``/``temporal_reconstruct`` convert a future state to a
direct, residual or derivative target and back. Both datasets are
steady-state, so no training path uses them yet.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import (
    EmptyDatasetError,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonpositiveTauError,
)
from .kernels import PointCloud
from .model import ModelConfig, ParamVector, _Graph, _np_graph, alpha_indices, forward

__all__ = [
    "NormStats",
    "zscore_fit",
    "zscore_apply",
    "zscore_invert",
    "relative_l2_loss",
    "temporal_target",
    "temporal_reconstruct",
    "grad_fd",
    "fd_steps",
    "grad_analytic",
    "loss_and_grad",
    "batch_loss",
    "OptimizerConfig",
    "OptimizerState",
    "optimizer_step",
    "median_rel_l1",
    "mse_mae",
    "TrainConfig",
    "train_model",
    "evaluate",
    "ALPHA_CLAMP",
]

ZERO_TARGET_FLOOR = 1e-30
ALPHA_CLAMP = -1e-4  # kernel alphas stay in the stable negative regime


# -- normalization -----------------------------------------------------------


@dataclass(frozen=True)
class NormStats:
    mu: np.ndarray
    sigma: np.ndarray
    epsilon: float = 1e-10


def zscore_fit(fields) -> NormStats:
    """Per-channel mean/std over a training set (list of (n_i, C) arrays)."""
    arrays = [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in fields]
    if not arrays or sum(a.shape[0] for a in arrays) == 0:
        raise EmptyDatasetError("cannot fit normalization on an empty set")
    stacked = np.concatenate(arrays, axis=0)
    return NormStats(mu=stacked.mean(axis=0), sigma=stacked.std(axis=0))


def zscore_apply(stats: NormStats, x: np.ndarray) -> np.ndarray:
    return (np.asarray(x, dtype=np.float64) - stats.mu) / (stats.sigma + stats.epsilon)


def zscore_invert(stats: NormStats, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) * (stats.sigma + stats.epsilon) + stats.mu


# -- loss --------------------------------------------------------------------


def relative_l2_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    """sqrt(sum ||y - y_hat||^2) / sqrt(sum ||y||^2); NaN sentinel when the
    target norm underflows."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ValueError(f"shape mismatch {y.shape} vs {y_hat.shape}")
    denom = math.sqrt(float((y**2).sum()))
    if denom < ZERO_TARGET_FLOOR:
        return float("nan")
    return math.sqrt(float(((y - y_hat) ** 2).sum())) / denom


def _stacked_loss(graph: _Graph, samples) -> Tensor:
    """Summed relative-L2 loss of samples that share one cloud size and one
    query count, run as one stacked forward pass."""
    clouds, queries, targets = zip(*samples)
    targets = [np.asarray(t, dtype=np.float64) for t in targets]
    denoms = np.array([math.sqrt(float((t**2).sum())) for t in targets])
    if np.any(denoms < ZERO_TARGET_FLOOR):
        raise NonFiniteLossError("zero-norm target in training batch")
    diff = graph.forward(clouds, queries) - Tensor(np.concatenate(targets))
    per_sample = (diff * diff).reshape(len(samples), -1).sum(axis=1).sqrt()
    return (per_sample * (1.0 / denoms)).sum()


def _batch_loss_graph(graph: _Graph, batch) -> Tensor:
    """Summed relative-L2 loss of a batch: samples are grouped by (cloud size,
    query count) and each group runs stacked through ``graph``."""
    if not batch:
        raise EmptyDatasetError("empty batch")
    groups: dict[tuple[int, int], list] = {}
    for sample in batch:
        cloud, queries, _ = sample
        groups.setdefault((cloud.count, queries.count), []).append(sample)
    total = None
    for samples in groups.values():
        loss = _stacked_loss(graph, samples)
        total = loss if total is None else total + loss
    return total


# -- temporal targets --------------------------------------------------------


def temporal_target(mode: str, u_now: np.ndarray, u_future: np.ndarray, tau: float) -> np.ndarray:
    u_now = np.asarray(u_now, dtype=np.float64)
    u_future = np.asarray(u_future, dtype=np.float64)
    if mode == "direct":
        return u_future.copy()
    if tau <= 0:
        raise NonpositiveTauError(f"tau must be positive, got {tau}")
    if mode == "residual":
        return u_future - u_now
    if mode == "derivative":
        return (u_future - u_now) / tau
    raise ValueError(f"unknown temporal mode {mode!r}")


def temporal_reconstruct(mode: str, u_now: np.ndarray, prediction: np.ndarray, tau: float) -> np.ndarray:
    u_now = np.asarray(u_now, dtype=np.float64)
    prediction = np.asarray(prediction, dtype=np.float64)
    if mode == "direct":
        return prediction.copy()
    if tau <= 0:
        raise NonpositiveTauError(f"tau must be positive, got {tau}")
    if mode == "residual":
        return u_now + prediction
    if mode == "derivative":
        return u_now + tau * prediction
    raise ValueError(f"unknown temporal mode {mode!r}")


# -- gradients ---------------------------------------------------------------


def fd_steps(params: np.ndarray, probe_eps: float = 1e-5) -> np.ndarray:
    """The per-coordinate step h of :func:`grad_fd`."""
    return probe_eps * (1.0 + np.abs(params))


def grad_fd(loss_closure, params: np.ndarray, probe_eps: float = 1e-5) -> np.ndarray:
    """Fourth-order central differences, eps scaled per coordinate.

    (-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h has O(h^4) truncation
    error, so the step can be large enough that round-off, about
    3e-11 * |f| at the default, stays well below gradients of order 1e-6.
    """
    params = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(params)
    steps = fd_steps(params, probe_eps)
    for k in range(params.size):
        eps = steps[k]
        losses = []
        for step in (2.0, 1.0, -1.0, -2.0):
            probe = params.copy()
            probe[k] += step * eps
            losses.append(loss_closure(probe))
        if not np.all(np.isfinite(losses)):
            raise NonFiniteLossError(f"non-finite loss probing coordinate {k}")
        p2, p1, m1, m2 = losses
        grad[k] = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * eps)
    return grad


def batch_loss(config: ModelConfig, pv: ParamVector, batch) -> float:
    """Summed per-sample relative-L2 loss (numpy path: the forward of
    :func:`loss_and_grad` without recording gradients)."""
    loss = float(_batch_loss_graph(_np_graph(config, pv), batch).data)
    if not np.isfinite(loss):
        raise NonFiniteLossError("non-finite batch loss")
    return loss


def loss_and_grad(config: ModelConfig, pv: ParamVector, batch) -> tuple[float, np.ndarray]:
    params_t = Tensor(pv.values, requires_grad=True)
    # Grams and resolvents are built once per branch and shared by the batch
    total = _batch_loss_graph(_Graph(config, params_t, pv), batch)
    total.backward()
    loss = float(total.data)
    if not np.isfinite(loss):
        raise NonFiniteLossError("non-finite batch loss")
    return loss, params_t.grad


def grad_analytic(config: ModelConfig, pv: ParamVector, batch) -> np.ndarray:
    """Reverse-mode gradient of the summed relative-L2 batch loss."""
    return loss_and_grad(config, pv, batch)[1]


# -- optimizer ---------------------------------------------------------------


@dataclass
class OptimizerConfig:
    lr0: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 1e-4
    clip: float = 1.0
    total_steps: int = 1000


@dataclass
class OptimizerState:
    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def fresh(cls, n: int) -> "OptimizerState":
        return cls(step=0, m=np.zeros(n), v=np.zeros(n))


def _cosine_lr(cfg: OptimizerConfig, step: int) -> float:
    lr_min = cfg.lr0 / 100.0
    frac = min(step / max(cfg.total_steps, 1), 1.0)
    return lr_min + 0.5 * (cfg.lr0 - lr_min) * (1.0 + math.cos(math.pi * frac))


def optimizer_step(
    state: OptimizerState, params: np.ndarray, grad: np.ndarray, cfg: OptimizerConfig
) -> tuple[OptimizerState, np.ndarray, float]:
    """One AdamW step: global-norm clip, decoupled decay, cosine schedule.

    Returns (new state, new params, learning rate used).
    """
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise NonFiniteGradientError("gradient contains non-finite entries")
    gnorm = float(np.linalg.norm(grad))
    if cfg.clip > 0 and gnorm > cfg.clip:
        grad = grad * (cfg.clip / gnorm)
    lr = _cosine_lr(cfg, state.step)
    m = cfg.beta1 * state.m + (1 - cfg.beta1) * grad
    v = cfg.beta2 * state.v + (1 - cfg.beta2) * grad * grad
    t = state.step + 1
    mhat = m / (1 - cfg.beta1**t)
    vhat = v / (1 - cfg.beta2**t)
    new_params = params * (1 - lr * cfg.weight_decay) - lr * mhat / (np.sqrt(vhat) + cfg.eps)
    return OptimizerState(step=t, m=m, v=v), new_params, lr


# -- metrics -----------------------------------------------------------------


def median_rel_l1(preds, truths) -> float:
    """Median relative L1 error in percent.

    Per sample-component e = ||u - u_hat||_1 / ||u||_1; component-wise
    median (even counts average the two middle values), then mean over
    components, times 100. Zero-norm targets are excluded with a warning.
    """
    per_component: dict[int, list[float]] = {}
    excluded = 0
    for u_hat, u in zip(preds, truths):
        u = np.atleast_2d(np.asarray(u, dtype=np.float64))
        u_hat = np.atleast_2d(np.asarray(u_hat, dtype=np.float64))
        for c in range(u.shape[1]):
            denom = float(np.abs(u[:, c]).sum())
            if denom < ZERO_TARGET_FLOOR:
                excluded += 1
                continue
            per_component.setdefault(c, []).append(
                float(np.abs(u[:, c] - u_hat[:, c]).sum()) / denom
            )
    if excluded:
        warnings.warn(f"median_rel_l1: excluded {excluded} zero-norm sample-components")
    if not per_component:
        raise EmptyDatasetError("no valid sample-components")
    medians = [float(np.median(v)) for v in per_component.values()]
    return 100.0 * float(np.mean(medians))


def mse_mae(preds, truths) -> tuple[float, float]:
    diffs = [
        np.asarray(p, dtype=np.float64) - np.asarray(t, dtype=np.float64)
        for p, t in zip(preds, truths)
    ]
    flat = np.concatenate([d.ravel() for d in diffs])
    return float((flat**2).mean()), float(np.abs(flat).mean())


# -- training loop -----------------------------------------------------------


@dataclass
class TrainConfig:
    steps: int = 200
    batch_size: int = 4
    seed: int = 0
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    log_path: str | None = None


def _batches(n: int, batch_size: int, steps: int, seed: int):
    """Deterministic cycling order: seeded shuffle per epoch."""
    from .rng import Rng64

    rng = Rng64(seed ^ 0xB41C4E5)
    order: list[int] = []
    while len(order) < steps * batch_size:
        epoch = list(range(n))
        rng.shuffle(epoch)
        order.extend(epoch)
    for s in range(steps):
        yield order[s * batch_size : (s + 1) * batch_size]


def train_model(
    config: ModelConfig,
    pv: ParamVector,
    batch_pool,
    train_cfg: TrainConfig,
    state: OptimizerState | None = None,
    start_step: int = 0,
    stop_step: int | None = None,
):
    """Optimize ``pv`` in place over ``batch_pool`` (list of samples).

    Returns (pv, state, history, stop_reason). A non-finite loss or
    gradient stops the run with stop_reason ``"nonfinite_loss"`` or
    ``"nonfinite_gradient"``, keeping the last good parameters; the failing
    step is not in the history. A run that reaches its last step (or
    ``stop_step``) returns ``"completed"``.
    Kernel alphas are clamped to the stable negative regime after every
    step. Passing a saved optimizer ``state`` plus the matching
    ``start_step`` resumes a run; the deterministic batch order is replayed,
    so a resumed run is bit-identical to an uninterrupted one.
    """
    opt_cfg = dataclasses.replace(train_cfg.optimizer, total_steps=train_cfg.steps)
    if state is None:
        state = OptimizerState.fresh(pv.size)
    a_idx = alpha_indices(config, pv)
    history = []
    stop_reason = "completed"
    log_f = open(train_cfg.log_path, "a" if start_step else "w") if train_cfg.log_path else None
    try:
        for step, idxs in enumerate(
            _batches(len(batch_pool), train_cfg.batch_size, train_cfg.steps, train_cfg.seed)
        ):
            if step < start_step:
                continue
            if stop_step is not None and step >= stop_step:
                break
            batch = [batch_pool[i] for i in idxs]
            t0 = time.monotonic()
            try:
                loss_sum, grad = loss_and_grad(config, pv, batch)
                loss = loss_sum / len(batch)
                grad = grad / len(batch)
                state, new_values, lr = optimizer_step(state, pv.values, grad, opt_cfg)
            except (NonFiniteLossError, NonFiniteGradientError) as exc:
                warnings.warn(f"step {step}: {exc}; stopping early")
                loss_failed = isinstance(exc, NonFiniteLossError)
                stop_reason = "nonfinite_loss" if loss_failed else "nonfinite_gradient"
                break
            pv.values = new_values
            if a_idx.size:
                pv.values[a_idx] = np.minimum(pv.values[a_idx], ALPHA_CLAMP)
            grad_norm = float(np.linalg.norm(grad))
            rec = {
                "step": step,
                "lr": lr,
                "loss": loss,
                "grad_norm": grad_norm,  # before clipping
                # optimizer_step's test for scaling this step's gradient down
                "clipped": bool(opt_cfg.clip > 0 and grad_norm > opt_cfg.clip),
                "wall_time_s": time.monotonic() - t0,
            }
            history.append(rec)
            if log_f:
                log_f.write(json.dumps(rec) + "\n")
    finally:
        if log_f:
            log_f.close()
    return pv, state, history, stop_reason


def evaluate(config: ModelConfig, pv: ParamVector, samples) -> dict:
    """Median relative L1 (%), MSE, MAE over (cloud, queries, target) samples."""
    if not samples:
        raise EmptyDatasetError("cannot evaluate on an empty sample list")
    preds, truths = [], []
    for cloud, queries, target in samples:
        preds.append(forward(config, pv, cloud, queries))
        truths.append(np.asarray(target, dtype=np.float64))
    mse, mae = mse_mae(preds, truths)
    return {
        "median_rel_l1_pct": median_rel_l1(preds, truths),
        "mse": mse,
        "mae": mae,
        "num_samples": len(preds),
    }
