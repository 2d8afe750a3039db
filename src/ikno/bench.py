"""Fast-vs-naive resolvent benchmarks with a machine-readable report.

Times the structured build/apply paths against explicit dense inversion
across a grid-size sweep, fits log-log scaling exponents for the apply
cost, and records speedup ratios. Absolute times are host-specific; the
report carries an environment block so numbers are interpretable.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .kernels import AxisKernelParams, axis_gram
from .resolvent import (
    NAIVE_CAP_DEFAULT,
    apply_resolvent,
    build_tp,
    build_vanilla,
)
from .tensor_linalg import dense_inverse, kron_materialize

__all__ = ["BenchCase", "BenchReport", "run_bench", "environment_block"]

_BENCH_CHANNELS = 64  # batch width amortizes per-call overhead at small M


@dataclass
class BenchCase:
    dim: int
    n_per_axis: int
    m: int
    variant: str  # vanilla | tp | naive
    build_ns: float
    apply_ns: float
    warmups: int
    repetitions: int
    max_deviation: float | None  # vs. naive oracle, when the oracle ran
    skipped: bool = False

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "n_per_axis": self.n_per_axis,
            "m": self.m,
            "variant": self.variant,
            "build_ns": self.build_ns,
            "apply_ns": self.apply_ns,
            "warmups": self.warmups,
            "repetitions": self.repetitions,
            "max_deviation": self.max_deviation,
            "skipped": self.skipped,
        }


@dataclass
class BenchReport:
    cases: list = field(default_factory=list)
    exponents: dict = field(default_factory=dict)
    speedups: dict = field(default_factory=dict)
    environment: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "report": "bench",
            "cases": [c.to_dict() for c in self.cases],
            "exponents": self.exponents,
            "speedups": self.speedups,
            "environment": self.environment,
        }


def environment_block() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "ikno_threads": os.environ.get("IKNO_THREADS"),
        "memory_note": "peak-memory figures are host-specific and not reported",
    }


def _median_ns(fn, warmups: int, reps: int) -> float:
    for _ in range(warmups):
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return float(np.median(times))


def _bench_gram(n: int) -> np.ndarray:
    return axis_gram(
        AxisKernelParams(c=1.0, beta=2.0, gamma=2.0), np.linspace(-1.0, 1.0, n)
    )


def run_bench(
    cases=((1, 16), (2, 16), (3, 16)),
    alpha: float = -0.5,
    warmups: int = 2,
    reps: int = 5,
    naive_cap: int = NAIVE_CAP_DEFAULT,
    seed: int = 0,
) -> BenchReport:
    """Benchmark (dim, n_per_axis) cases; naive rows above ``naive_cap`` are
    skipped and flagged rather than attempted."""
    if warmups < 2 or reps < 5:
        raise ValueError("need >= 2 warmups and >= 5 repetitions")
    bad = [f"{d}x{n}" for d, n in cases if d < 1 or n < 1]
    if bad:
        raise ValueError(f"bad bench case {', '.join(bad)}: dim and n_per_axis must be >= 1")
    report = BenchReport(environment=environment_block())
    rng = np.random.default_rng(seed)

    for d, n in cases:
        grams = [_bench_gram(n) for _ in range(d)]
        m = n**d
        sizes = tuple(g.shape[0] for g in grams)
        t = rng.standard_normal(sizes + (_BENCH_CHANNELS,))

        rv = build_vanilla(grams, alpha)
        rt = build_tp(grams, alpha)
        naive_ok = m <= naive_cap
        dense = None
        if naive_ok:
            full = kron_materialize(grams)
            dense = dense_inverse(np.eye(m) - alpha * full)
            ref = (dense @ t.reshape(m, -1)).reshape(t.shape)
            dev_v = float(np.abs(apply_resolvent(rv, t) - ref).max())
            # the tensor-product variant has its own dense oracle
            dense_tp = kron_materialize(
                [dense_inverse(np.eye(g.shape[0]) - alpha * g) for g in grams]
            )
            ref_tp = (dense_tp @ t.reshape(m, -1)).reshape(t.shape)
            dev_t = float(np.abs(apply_resolvent(rt, t) - ref_tp).max())
        else:
            dev_v = dev_t = None

        report.cases.append(
            BenchCase(
                dim=d, n_per_axis=n, m=m, variant="vanilla",
                build_ns=_median_ns(lambda: build_vanilla(grams, alpha), warmups, reps),
                apply_ns=_median_ns(lambda: apply_resolvent(rv, t), warmups, reps),
                warmups=warmups, repetitions=reps, max_deviation=dev_v,
            )
        )
        report.cases.append(
            BenchCase(
                dim=d, n_per_axis=n, m=m, variant="tp",
                build_ns=_median_ns(lambda: build_tp(grams, alpha), warmups, reps),
                apply_ns=_median_ns(lambda: apply_resolvent(rt, t), warmups, reps),
                warmups=warmups, repetitions=reps, max_deviation=dev_t,
            )
        )
        if naive_ok:
            def naive_build():
                full = kron_materialize(grams)
                return dense_inverse(np.eye(m) - alpha * full)

            report.cases.append(
                BenchCase(
                    dim=d, n_per_axis=n, m=m, variant="naive",
                    build_ns=_median_ns(naive_build, warmups, reps),
                    apply_ns=_median_ns(
                        lambda: dense @ t.reshape(m, -1), warmups, reps
                    ),
                    warmups=warmups, repetitions=reps, max_deviation=0.0,
                )
            )
        else:
            report.cases.append(
                BenchCase(
                    dim=d, n_per_axis=n, m=m, variant="naive",
                    build_ns=float("nan"), apply_ns=float("nan"),
                    warmups=warmups, repetitions=reps, max_deviation=None,
                    skipped=True,
                )
            )

    for variant in ("vanilla", "tp"):
        rows = [c for c in report.cases if c.variant == variant and not c.skipped]
        if len(rows) >= 2:
            lm = np.log([c.m for c in rows])
            lt = np.log([c.apply_ns for c in rows])
            report.exponents[variant] = float(np.polyfit(lm, lt, 1)[0])

    by_key = {(c.dim, c.n_per_axis, c.variant): c for c in report.cases}
    for d, n in cases:
        naive = by_key.get((d, n, "naive"))
        fast = by_key.get((d, n, "vanilla"))
        tp = by_key.get((d, n, "tp"))
        key = f"d{d}_n{n}"
        if naive is not None and not naive.skipped:
            report.speedups[key] = {
                "naive_over_vanilla_total": (naive.build_ns + naive.apply_ns)
                / (fast.build_ns + fast.apply_ns),
                "naive_over_tp_total": (naive.build_ns + naive.apply_ns)
                / (tp.build_ns + tp.apply_ns),
                "vanilla_over_tp_apply": fast.apply_ns / tp.apply_ns,
            }
        else:
            report.speedups[key] = {"vanilla_over_tp_apply": fast.apply_ns / tp.apply_ns}
    return report
