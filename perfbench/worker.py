"""One benchmark process: set up one workload, then optionally time it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S [--trace 0|1] [--setup-only]

``run.py`` starts this in a fresh process per set-up and per timed run, so
no workload inherits another's allocator state. The last stdout line is a
JSON object; ``ready`` is the ``time.monotonic()`` reading just before the
first timed op, which the parent turns into ``setup_s``.

Untraced (``--trace 0``), every op is timed bare. Traced (``--trace 1``),
ops alternate between bare and wrapped in the span hooks of
``tracing.py``, so the two medians give the tracing overhead, and the
spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
U64 = (1 << 64) - 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "IKNO_THREADS")


def import_ikno():
    """Import the checkout's own ikno from ``src/``, never an installed one."""
    if not (SRC / "ikno" / "__init__.py").is_file():
        raise SystemExit(f"worker: no ikno package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ikno

    if Path(ikno.__file__).resolve().parent != SRC / "ikno":
        raise SystemExit(f"worker: imported ikno from {ikno.__file__}, not {SRC}")


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Loop:
    """Closed loop: the next op starts when the previous one returns."""

    def __init__(self, run):
        self.run = run
        self.attempted = 0
        self.failed = 0
        self.durations_ns: list[int] = []
        self.first_error: str | None = None

    def one(self, before=None, after=None) -> int:
        """Run one op; returns its duration in ns (also for a failed op)."""
        self.attempted += 1
        out, error = None, None
        if before:
            before()
        t0 = time.perf_counter_ns()
        try:
            out = self.run.op()
        except Exception:  # an op that raises counts as failed; the run goes on
            error = traceback.format_exc()
        t1 = time.perf_counter_ns()
        if after:
            after()
        if error is None and self.run.accept(out):
            self.durations_ns.append(t1 - t0)
        else:
            self.failed += 1
            if self.first_error is None:
                self.first_error = error or "non-finite result"
        return t1 - t0


def timed(run, seconds: float) -> dict:
    loop = Loop(run)
    faults0 = _minor_faults()
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        loop.one()
    wall = time.perf_counter() - t_start
    return {
        "loop": loop,
        "wall_s": wall,
        "faults_per_op": (_minor_faults() - faults0) / loop.attempted,
    }


def traced(run, seconds: float) -> dict:
    """Alternate bare and traced ops; per-layer figures come from the traced."""
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    linalg = importlib.import_module("ikno.tensor_linalg")
    mode_count = getattr(linalg, "mode_apply_count", lambda: 0)
    loop = Loop(run)
    bare_ns, traced_ns, faults, tensors, mode_calls = [], [], [], [], []
    root = -1

    def start_tracing():
        nonlocal root
        hooks.install()
        root = tracer.enter(tracing.OP)

    def stop_tracing():
        tracer.exit(root)
        hooks.remove()

    t_start = time.perf_counter()
    deadline = t_start + seconds
    while time.perf_counter() < deadline:
        f0 = _minor_faults()
        bare_ns.append(loop.one())
        faults.append(_minor_faults() - f0)
        n0, m0 = tracer.count("autodiff.tensors"), mode_count()
        traced_ns.append(loop.one(start_tracing, stop_tracing))
        tensors.append(tracer.count("autodiff.tensors") - n0)
        mode_calls.append(mode_count() - m0)
    wall = time.perf_counter() - t_start
    layers = tracing.median_layers(tracing.per_op_layers(tracer.spans()))
    return {
        "loop": loop,
        "wall_s": wall,
        "layers": layers,
        "traced_ops": len(traced_ns),
        "bare_ms_p50": median(bare_ns) / 1e6,
        "traced_ms_p50": median(traced_ns) / 1e6,
        "faults_per_op": sum(faults) / len(faults),
        "tensors_per_op": median(tensors),
        "mode_apply_calls": median(mode_calls),
        "missing_hooks": list(tracer.missing),
        "trace": tracer.to_json(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    seed = args.seed & U64

    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy is first imported, by ikno
    import_ikno()
    import workloads
    from ikno.bench import environment_block

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"worker: unknown workload {args.workload!r}")
    run = workloads.make_run(args.workload, seed)
    run.warm_up()
    ready = time.monotonic()
    result = {"ready": ready, "gen_s": run.gen_s}
    if not args.setup_only:
        measured = (traced(run, args.seconds) if args.trace
                    else timed(run, args.seconds))
        result["peak_rss_mb"] = _peak_rss_mb()
        loop = measured.pop("loop")
        trace = measured.pop("trace", None)
        if trace is not None:
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            path.write_text(json.dumps(trace))
            measured["trace_file"] = str(path.relative_to(ROOT))
        if loop.first_error:
            print(f"worker: first failed op:\n{loop.first_error}", file=sys.stderr)
        result.update(measured)
        result.update(
            attempted=loop.attempted,
            failed=loop.failed,
            durations_ms=[ns / 1e6 for ns in loop.durations_ns],
            samples_per_op=run.samples_per_op,
            problems=run.checks(),
            environment=environment_block(),
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
