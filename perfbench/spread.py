"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload NAME

Runs ``run.py`` once for each of the seeds 0 to 9, one run at a time, and
prints for each end-to-end metric the median, the interquartile range over
the median, and that spread as a share of the metric's bound in
``BENCHMARK.json``.
A benchmark is steady when every spread but ``setup_s`` is well inside
its bound. Exits 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median

from benchstats import relative_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in range(RUNS):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run.py exited with status {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()), flush=True)

    print(f"{'metric':<16} {'median':>12} {'IQR/median':>11} {'bound':>6} {'spread/bound':>12}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = relative_spread(vals)
        print(f"{metric['name']:<16} {median(vals):>12.6g} {spread:>11.4f} "
              f"{metric['bound']:>6} {spread / metric['bound']:>12.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
