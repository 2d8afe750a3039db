"""End-to-end and per-layer benchmark of ikno training steps and inference.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``. Without
``--workload`` all workloads run, one after another. Each workload
gets fresh processes (``worker.py``) with BLAS and OpenMP pinned to one
thread: ``SETUPS - 1`` that only set up, then one that sets up, runs the
timed closed loop for ``--seconds`` and checks the outputs. ``setup_s`` is
the median over all of them of process start to first timed op. A traced
run starts only the last process.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
the per-layer metrics of a separate traced run. Each metric is printed on
its own line with its unit; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The full
result, with the environment block, is written to ``perfbench/out/``.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from benchstats import failed_frac, percentile, samples_beyond

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("train-csines-tp", "train-grid32-vanilla", "infer-poisson-L32")
SETUPS = 7
SETUP_BUDGET_S = 120.0  # all set-ups and checks of one workload run
P_TAIL = 90

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "autodiff.tensors_per_op": "count",
    "autodiff.backward_self_ms": "ms",
    "model.tokenize_ms": "ms",
    "model.encode_self_ms": "ms",
    "model.process_ms": "ms",
    "model.decode_self_ms": "ms",
    "resolvent.build_ms": "ms",
    "resolvent.builds_per_op": "count",
    "resolvent.apply_fwd_ms": "ms",
    "resolvent.apply_bwd_ms": "ms",
    "tensor_linalg.mode_apply_calls": "count",
    "training.loss_and_grad_ms": "ms",
    "training.optimizer_step_ms": "ms",
    "data.gen_s": "s",
    "proc.minor_faults_per_op": "count",
    "trace.overhead_frac": "ratio",
    "trace.covered_frac": "ratio",
}


class BenchError(Exception):
    """A worker could not run; the benchmark prints no result."""


def _worker(workload: str, seed: int, seconds: float, trace: int, setup_only: bool,
            deadline: float):
    """Run one worker process; returns (its result, seconds from spawn to ready)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: run exceeded its time budget") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready"] - spawned


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    durations = res["durations_ms"]
    if not durations:
        raise BenchError("no op succeeded")
    done = res["attempted"] - res["failed"]
    return {
        "setup_s": median(setups),
        "samples_per_s": done * res["samples_per_op"] / res["wall_s"],
        "op_ms_p50": percentile(durations, 50),
        "op_ms_p90": percentile(durations, P_TAIL),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(res: dict) -> dict[str, float]:
    lay = res["layers"]
    return {
        "autodiff.tensors_per_op": res["tensors_per_op"],
        "autodiff.backward_self_ms": lay["backward_self_ms"],
        "model.tokenize_ms": lay["tokenize_ms"],
        "model.encode_self_ms": lay["encode_self_ms"],
        "model.process_ms": lay["process_ms"],
        "model.decode_self_ms": lay["decode_self_ms"],
        "resolvent.build_ms": lay["build_ms"],
        "resolvent.builds_per_op": lay["builds"],
        "resolvent.apply_fwd_ms": lay["apply_fwd_ms"],
        "resolvent.apply_bwd_ms": lay["apply_bwd_ms"],
        "tensor_linalg.mode_apply_calls": res["mode_apply_calls"],
        "training.loss_and_grad_ms": lay["loss_and_grad_ms"],
        "training.optimizer_step_ms": lay["optimizer_step_ms"],
        "data.gen_s": res["gen_s"],
        "proc.minor_faults_per_op": res["faults_per_op"],
        "trace.overhead_frac": res["traced_ms_p50"] / res["bare_ms_p50"] - 1.0,
        "trace.covered_frac": lay["covered_frac"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + seconds + SETUP_BUDGET_S
    setups = []
    for _ in range(0 if trace else SETUPS - 1):  # a traced run reports no setup_s
        setups.append(_worker(workload, seed, seconds, trace, True, deadline)[1])
    res, ready_s = _worker(workload, seed, seconds, trace, False, deadline)
    setups.append(ready_s)
    metrics = per_layer(res) if trace else end_to_end(res, setups)
    units = PER_LAYER if trace else END_TO_END
    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": not res["problems"] and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": failed_frac(res["attempted"], res["failed"]),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "problems": res["problems"],
        "setup_samples_s": setups,
        "ops_timed": len(res["durations_ms"]),
        "environment": res["environment"],
        "worker": {k: v for k, v in res.items() if k not in ("durations_ms", "environment")},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(summary, indent=1)
    )
    return summary


def report(s: dict) -> None:
    """One line per metric, with its unit and the sample count it rests on."""
    n = s["ops_timed"]
    notes = {
        "setup_s": f"median of {len(s['setup_samples_s'])} set-ups",
        "samples_per_s": f"{n} ops",
        "op_ms_p50": f"n={n}",
        "op_ms_p90": f"n={n}, {samples_beyond(n, P_TAIL)} beyond",
    }
    head = f"[{s['workload']} seed={s['seed']} trace={s['trace']}]"
    for name, m in s["metrics"].items():
        note = notes.get(name, "") if not s["trace"] else ""
        print(f"{head} {name:<32} {m['value']:>14.6g} {m['unit']:<6} {note}")
    print(f"{head} {'failed_frac':<32} {s['failed_frac']:>14.6g} {'ratio':<6} "
          f"{s['failed']} of {s['attempted']} ops")
    for problem in s["problems"]:
        print(f"{head} CHECK FAILED: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    names = (args.workload,) if args.workload else WORKLOADS
    summaries = []
    try:
        for name in names:
            summaries.append(run_workload(name, args.seed, args.seconds, args.trace))
            report(summaries[-1])
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2

    correct = all(s["correct"] for s in summaries)
    if args.workload:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}/{k}": m for s in summaries for k, m in s["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
