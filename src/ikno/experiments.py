"""Experiment orchestration: train/eval runs, checkpoints, finite-order study.

Glue between datasets, the model, and the training loop. All runs are
deterministic given (config, seed); checkpoints replay the batch order so
a resumed run is bit-identical to an uninterrupted one.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from pathlib import Path

from .data import Dataset
from .errors import EmptyDatasetError
from .kernels import LinearWindowKernel, PointCloud
from .model import ModelConfig, ParamVector, init_params, param_layout, _segments
from .serialize import load_arrays, save_arrays
from .training import (
    NormStats,
    OptimizerConfig,
    OptimizerState,
    TrainConfig,
    evaluate,
    train_model,
    zscore_apply,
    zscore_fit,
)

__all__ = [
    "RunSpec",
    "prepare_split",
    "run_training",
    "save_checkpoint",
    "load_checkpoint",
    "finite_order_study",
    "STUDY_REFERENCE_TREND",
]

# Published reference trend for the truncation-order study (context only;
# produced at a much larger scale with a different processor, so the
# absolute numbers are explicitly not reproduced here).
STUDY_REFERENCE_TREND = [2.49, 2.32, 2.25, 2.13]


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one training run."""

    model: ModelConfig
    steps: int = 2000
    batch_size: int = 4
    seed: int = 0
    lr0: float = 1e-2
    test_count: int = 64
    checkpoint_every: int = 500

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        for name in ("batch_size", "checkpoint_every"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


def _norm_samples(records, cond_stats: NormStats, tgt_stats: NormStats):
    out = []
    for rec in records:
        cloud = PointCloud(
            rec.input_cloud.coords,
            channels=zscore_apply(cond_stats, rec.input_cloud.channels),
        )
        out.append((cloud, rec.queries, zscore_apply(tgt_stats, rec.targets)))
    return out


def prepare_split(ds: Dataset, test_count: int):
    """Deterministic train/test split with z-score stats fit on train only.

    The last ``test_count`` samples are held out. Returns
    (train_samples, test_samples, cond_stats, tgt_stats) where samples are
    (cloud, queries, target) triples in normalized space.
    """
    n = len(ds.samples)
    if test_count <= 0 or test_count >= n:
        raise ValueError(f"test_count must be in (0, {n})")
    train_recs = ds.samples[: n - test_count]
    test_recs = ds.samples[n - test_count :]
    if not train_recs:
        raise EmptyDatasetError("empty training split")
    cond_stats = zscore_fit([r.input_cloud.channels for r in train_recs])
    tgt_stats = zscore_fit([r.targets for r in train_recs])
    return (
        _norm_samples(train_recs, cond_stats, tgt_stats),
        _norm_samples(test_recs, cond_stats, tgt_stats),
        cond_stats,
        tgt_stats,
    )


# -- checkpoints -------------------------------------------------------------


def _model_config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    # older checkpoints store nerf_levels = 1, the only encoding level there ever was
    if d.get("nerf_levels") == 1:
        del d["nerf_levels"]
    if d.get("fixed_window") is not None:
        d["fixed_window"] = LinearWindowKernel(**d["fixed_window"])
    return ModelConfig(**d)


def save_checkpoint(out_dir, spec: RunSpec, pv: ParamVector, state: OptimizerState,
                    step_done: int, cond_stats: NormStats, tgt_stats: NormStats) -> None:
    arrays = {
        "params": pv.values,
        "opt_m": state.m,
        "opt_v": state.v,
        "cond_mu": cond_stats.mu,
        "cond_sigma": cond_stats.sigma,
        "tgt_mu": tgt_stats.mu,
        "tgt_sigma": tgt_stats.sigma,
    }
    meta = {
        "kind": "checkpoint",
        "step_done": int(step_done),
        "opt_step": int(state.step),
        "model": asdict(spec.model),
        "steps": spec.steps,
        "batch_size": spec.batch_size,
        "seed": spec.seed,
        "lr0": spec.lr0,
        "test_count": spec.test_count,
        "checkpoint_every": spec.checkpoint_every,
        "segments": {k: list(v) for k, v in param_layout(spec.model).items()},
    }
    save_arrays(out_dir, arrays, meta)


def load_checkpoint(in_dir):
    """Returns (spec, pv, state, step_done, cond_stats, tgt_stats)."""
    arrays, meta = load_arrays(in_dir)
    model = _model_config_from_dict(meta["model"])
    spec = RunSpec(
        model=model,
        steps=int(meta["steps"]),
        batch_size=int(meta["batch_size"]),
        seed=int(meta["seed"]),
        lr0=float(meta["lr0"]),
        test_count=int(meta["test_count"]),
        checkpoint_every=int(meta["checkpoint_every"]),
    )
    layout = param_layout(model)
    pv = ParamVector(values=arrays["params"].copy(), segments=_segments(layout))
    state = OptimizerState(
        step=int(meta["opt_step"]), m=arrays["opt_m"].copy(), v=arrays["opt_v"].copy()
    )
    cond_stats = NormStats(mu=arrays["cond_mu"], sigma=arrays["cond_sigma"])
    tgt_stats = NormStats(mu=arrays["tgt_mu"], sigma=arrays["tgt_sigma"])
    return spec, pv, state, int(meta["step_done"]), cond_stats, tgt_stats


# -- train / eval ------------------------------------------------------------


def run_training(ds: Dataset, spec: RunSpec, out_dir=None, resume: bool = False) -> dict:
    """Train one model; returns a metrics report dict.

    With ``out_dir`` set, writes a step log (JSONL), a checkpoint directory,
    and metrics.json. With ``resume`` and an existing checkpoint, continues
    the interrupted run to its original step budget.
    """
    out = Path(out_dir) if out_dir is not None else None
    ckpt_dir = out / "checkpoint" if out else None
    log_path = str(out / "train_log.jsonl") if out else None
    start_step = 0
    state = None

    if resume and ckpt_dir is not None and (ckpt_dir / "manifest.json").exists():
        spec, pv, state, start_step, cond_stats, tgt_stats = load_checkpoint(ckpt_dir)
        train, test, _, _ = prepare_split(ds, spec.test_count)
    else:
        train, test, cond_stats, tgt_stats = prepare_split(ds, spec.test_count)
        pv = init_params(spec.model, spec.seed)

    baseline = evaluate(spec.model, pv, test) if start_step == 0 else None

    train_cfg = TrainConfig(
        steps=spec.steps,
        batch_size=spec.batch_size,
        seed=spec.seed,
        optimizer=OptimizerConfig(lr0=spec.lr0),
        log_path=log_path,
    )
    if out:
        out.mkdir(parents=True, exist_ok=True)

    done = start_step
    stop_reason = "completed"
    while done < spec.steps and stop_reason == "completed":
        chunk = min(spec.checkpoint_every, spec.steps - done) if ckpt_dir else spec.steps - done
        pv, state, hist, stop_reason = train_model(
            spec.model, pv, train, train_cfg,
            state=state, start_step=done, stop_step=done + chunk,
        )
        done += len(hist)
        if ckpt_dir:
            save_checkpoint(ckpt_dir, spec, pv, state, done, cond_stats, tgt_stats)

    final = evaluate(spec.model, pv, test)
    report = {
        "report": "train",
        "variant": spec.model.variant,
        "steps": spec.steps,
        "steps_done": done,
        "stopped_early": stop_reason != "completed",
        "stop_reason": stop_reason,
        "seed": spec.seed,
        "num_train": len(train),
        "num_test": len(test),
        "baseline": baseline,
        "final": final,
    }
    if out:
        from .reports import write_report  # jsonschema loads only when a report is written

        write_report(report, out / "metrics.json")
    return report


def run_eval(ds: Dataset, checkpoint_dir) -> dict:
    spec, pv, _, step_done, cond_stats, tgt_stats = load_checkpoint(checkpoint_dir)
    _, test, _, _ = prepare_split(ds, spec.test_count)
    metrics = evaluate(spec.model, pv, test)
    return {
        "report": "eval",
        "variant": spec.model.variant,
        "step_done": step_done,
        "metrics": metrics,
    }


# -- finite-order study ------------------------------------------------------


def finite_order_study(
    ds: Dataset,
    steps: int = 300,
    seed: int = 0,
    grid_l: int = 16,
    hidden: int = 16,
    test_count: int = 64,
    batch_size: int = 4,
) -> dict:
    """Truncated orders p=0..4 vs. both infinite variants, fixed window kernel.

    Every row shares the data, seed, step budget, the small mlp processor
    and the separable window kernel, so the propagator is the only varying
    factor. The reference trend in the header is context only and
    explicitly not reproduced.
    """
    window = LinearWindowKernel(radius=0.2, scale=1.0, alpha=-0.15)
    rows = []
    configs = [(f"truncated-p{p}", "truncated", p) for p in range(5)]
    configs += [("vanilla", "vanilla", None), ("tp", "tp", None)]
    for label, variant, order in configs:
        model = ModelConfig(
            dim=ds.dim,
            grid_l=grid_l,
            hidden=hidden,
            branches=1,
            processor="mlp",
            variant=variant,
            truncation_order=order if order is not None else 1,
            fixed_window=window,
        )
        spec = RunSpec(
            model=model, steps=steps, batch_size=batch_size, seed=seed,
            test_count=test_count,
        )
        rep = run_training(ds, spec)
        rows.append(
            {
                "label": label,
                "variant": variant,
                "order": order,
                "median_rel_l1_pct": rep["final"]["median_rel_l1_pct"],
                "mse": rep["final"]["mse"],
                "mae": rep["final"]["mae"],
            }
        )
    return {
        "report": "finite-order-study",
        "steps": steps,
        "seed": seed,
        "window": asdict(window),
        "reference_trend": {
            "values": STUDY_REFERENCE_TREND,
            "note": (
                "published trend for p=1..4, cited as reference context only; "
                "NOT reproduced here (different processor and scale)"
            ),
        },
        "rows": rows,
    }


def write_study_csv(report: dict, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as f:
        f.write(
            "# reference trend (context only, not reproduced): "
            + ",".join(str(v) for v in report["reference_trend"]["values"])
            + "\n"
        )
        w = csv.writer(f)
        w.writerow(["label", "variant", "order", "median_rel_l1_pct", "mse", "mae"])
        for r in report["rows"]:
            w.writerow(
                [r["label"], r["variant"], r["order"], r["median_rel_l1_pct"], r["mse"], r["mae"]]
            )
