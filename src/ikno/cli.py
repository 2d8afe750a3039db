"""Command-line front end.

Grammar: ``ikno <command> [--config PATH] [--option VALUE ...]``.
Every option of a command is both a long flag and a key of a config
file, and both parse by the type of the option's default; a boolean
option is a bare flag. A config file holds ``key = value`` lines (UTF-8);
explicit flags override file values, unknown keys are rejected.
``IKNO_THREADS`` caps internal parallelism. Every command is deterministic
given (flags, config file, seed) and exits 0 only on full success; reports
are schema-validated JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = ["main", "parse_config_file", "merge_options"]


def _apply_thread_cap() -> None:
    """Lower each BLAS/OpenMP thread count to ``IKNO_THREADS``: a smaller
    integer already set is kept, and anything else is replaced."""
    cap = os.environ.get("IKNO_THREADS")
    if not cap:
        return
    try:
        n = max(1, int(cap))
    except ValueError:
        raise SystemExit(f"IKNO_THREADS must be an integer, got {cap!r}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        try:
            current = int(os.environ[var])
        except (KeyError, ValueError):
            current = n
        os.environ[var] = str(min(n, current))


def parse_config_file(path) -> dict:
    """``key = value`` per line; blank lines and ``#`` comments allowed."""
    out: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ValueError(f"{path}:{lineno}: empty key")
        out[key.replace("-", "_")] = value
    return out


def _coerce(value: str, like):
    if isinstance(like, bool):
        low = value.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    return value


def merge_options(defaults: dict, config: dict, cli: dict) -> dict:
    """defaults < config file < explicit flags; unknown config keys rejected."""
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    merged = dict(defaults)
    for key, raw in config.items():
        merged[key] = _coerce(raw, defaults[key]) if isinstance(raw, str) else raw
    merged.update(cli)
    return merged


def _sources(args: argparse.Namespace) -> tuple[dict, dict]:
    """(config-file options, explicit flags) of a parsed command line."""
    cli = {k: v for k, v in vars(args).items()
           if k not in ("command", "func", "defaults", "config")}
    config = parse_config_file(args.config) if getattr(args, "config", None) else {}
    return config, cli


def _resolve(args: argparse.Namespace) -> dict:
    return merge_options(args.defaults, *_sources(args))


def _load_samples_or_fail(data):
    from .data import load_dataset

    if not data or not Path(data).exists():
        print(f"error: dataset directory not found: {data!r}", file=sys.stderr)
        return None
    return load_dataset(data)


# -- commands ----------------------------------------------------------------

_GEN_KIND_KEYS = {"csines": ("max_mode",), "poisson-gauss": ("solver_res",)}


def cmd_gen_data(args) -> int:
    config, cli = _sources(args)
    opts = merge_options(args.defaults, config, cli)
    from .data import (
        CSinesSpec,
        PoissonGaussSpec,
        gen_csines,
        gen_poisson_gauss,
        save_dataset,
    )
    from .reports import write_report

    kind = opts["kind"]
    if kind not in _GEN_KIND_KEYS:
        raise ValueError(f"unknown dataset kind {kind!r}")
    foreign = [
        key.replace("_", "-")
        for other, keys in _GEN_KIND_KEYS.items() if other != kind
        for key in keys if key in config or key in cli
    ]
    if foreign:
        raise ValueError(f"{', '.join(foreign)} does not apply to dataset kind {kind!r}")
    if kind == "csines":
        ds = gen_csines(CSinesSpec(
            num_samples=opts["num_samples"], max_mode=opts["max_mode"],
            num_points=opts["num_points"], num_queries=opts["num_queries"],
            seed=opts["seed"],
        ))
    else:
        ds = gen_poisson_gauss(PoissonGaussSpec(
            num_samples=opts["num_samples"], solver_res=opts["solver_res"],
            num_points=opts["num_points"], num_queries=opts["num_queries"],
            seed=opts["seed"],
        ))
    out_dir = opts["out"] or f"data-{kind}"
    manifest = save_dataset(ds, out_dir)
    report = {
        "report": "gen-data",
        "kind": kind,
        "out_dir": str(out_dir),
        "num_samples": len(ds.samples),
        "seed": opts["seed"],
        "checksums": {
            name: info["sha256"] for name, info in manifest["arrays"].items()
        },
    }
    write_report(report, Path(out_dir) / "gen_report.json")
    print(json.dumps(report["checksums"], indent=2))
    print(f"wrote {len(ds.samples)} samples to {out_dir}")
    return 0


def cmd_verify(args) -> int:
    opts = _resolve(args)
    from .reports import write_report
    from .verify import run_all

    report = run_all(
        cases=opts["cases"], seed=opts["seed"],
        inject_fault=opts["inject_fault"] or None,
    ).to_dict()
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']}: max deviation {check['max_deviation']:.3e}"
              f" (threshold {check['threshold']:.1e})")
    if opts["out"]:
        write_report(report, Path(opts["out"]) / "verify_report.json")
    if not report["all_passed"]:
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        print(f"error: failing checks: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def cmd_finite_order_study(args) -> int:
    opts = _resolve(args)
    from .experiments import finite_order_study, write_study_csv
    from .reports import write_report

    ds = _load_samples_or_fail(opts["data"])
    if ds is None:
        return 1
    report = finite_order_study(
        ds, steps=opts["steps"], seed=opts["seed"], grid_l=opts["grid_l"],
        hidden=opts["hidden"], test_count=opts["test_count"],
        batch_size=opts["batch_size"],
    )
    out = Path(opts["out"])
    write_report(report, out / "study.json")
    write_study_csv(report, out / "study.csv")
    for row in report["rows"]:
        print(f"{row['label']:>14}: median rel L1 {row['median_rel_l1_pct']:.3f}%")
    print(f"reference trend (context only): {report['reference_trend']['values']}")
    return 0


def cmd_bench(args) -> int:
    opts = _resolve(args)
    from .bench import run_bench
    from .reports import write_report

    try:
        cases = tuple(
            (int(d), int(n))
            for d, n in (pair.split("x") for pair in opts["cases"].split(","))
        )
    except ValueError:
        print(f"error: bad --cases {opts['cases']!r}; expected like 1x16,3x16",
              file=sys.stderr)
        return 2
    report = run_bench(
        cases=cases, warmups=opts["warmups"], reps=opts["reps"], seed=opts["seed"]
    ).to_dict()
    for case in report["cases"]:
        if case["skipped"]:
            print(f"d={case['dim']} n={case['n_per_axis']} {case['variant']}: skipped (cap)")
            continue
        print(f"d={case['dim']} n={case['n_per_axis']} {case['variant']}: "
              f"build {case['build_ns'] / 1e6:.3f} ms, apply {case['apply_ns'] / 1e6:.3f} ms")
    print("fitted apply exponents:", json.dumps(report["exponents"]))
    if opts["out"]:
        write_report(report, Path(opts["out"]) / "bench_report.json")
    return 0


def cmd_train(args) -> int:
    opts = _resolve(args)
    from .experiments import RunSpec, run_training
    from .model import ModelConfig

    ds = _load_samples_or_fail(opts["data"])
    if ds is None:
        return 1
    if opts["batch_size"] < 1:
        raise ValueError(f"batch_size must be >= 1, got {opts['batch_size']}")
    if opts["epochs"] < 0:
        raise ValueError(f"epochs must be >= 0, got {opts['epochs']}")
    n_train = len(ds.samples) - opts["test_count"]
    steps = opts["steps"]  # RunSpec rejects a negative count
    if steps == 0:
        epochs = opts["epochs"] or 10
        steps = epochs * max(1, -(-n_train // opts["batch_size"]))
    model = ModelConfig(
        dim=ds.dim, grid_l=opts["grid_l"], hidden=opts["hidden"],
        branches=opts["branches"], processor=opts["processor"],
        variant=opts["variant"], truncation_order=opts["truncation_order"],
    )
    spec = RunSpec(
        model=model, steps=steps, batch_size=opts["batch_size"],
        seed=opts["seed"], lr0=opts["lr0"], test_count=opts["test_count"],
        checkpoint_every=opts["checkpoint_every"],
    )
    report = run_training(ds, spec, out_dir=opts["out"], resume=opts["resume"])
    print(f"final metrics: {json.dumps(report['final'])}")
    print(f"checkpoint + metrics in {opts['out']}")
    return 0


def cmd_eval(args) -> int:
    opts = _resolve(args)
    from .experiments import run_eval
    from .reports import write_report

    ds = _load_samples_or_fail(opts["data"])
    if ds is None:
        return 1
    ckpt = opts["checkpoint"] or (Path(opts["out"] or "train-out") / "checkpoint")
    if not Path(ckpt, "manifest.json").exists():
        print(f"error: no checkpoint at {ckpt}", file=sys.stderr)
        return 1
    report = run_eval(ds, ckpt)
    print(json.dumps(report["metrics"], indent=2))
    if opts["out"]:
        write_report(report, Path(opts["out"]) / "eval_report.json")
    return 0


# -- option table ------------------------------------------------------------


class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    options: dict  # {option: default}; the default's type is the option's type
    option_help: dict


_COMMANDS = {
    "gen-data": _Command(cmd_gen_data, "generate a synthetic dataset", {
        "kind": "csines", "seed": 0, "out": "", "num_samples": 256,
        "num_points": 64, "num_queries": 64, "max_mode": 3, "solver_res": 65,
    }, {"kind": "csines | poisson-gauss"}),
    "verify": _Command(cmd_verify, "run the correctness suites", {
        "seed": 0, "out": "", "cases": 100, "inject_fault": "",
    }, {"inject_fault": "test hook: tp-as-vanilla | truncated-order-off-by-one"
                     " | tp-factors-unrotated"}),
    "finite-order-study": _Command(
        cmd_finite_order_study, "truncation order sweep vs. infinite variants", {
            "seed": 0, "out": "study-out", "data": "", "steps": 300,
            "grid_l": 16, "hidden": 16, "test_count": 64, "batch_size": 4,
        }, {}),
    "bench": _Command(cmd_bench, "fast-vs-naive resolvent benchmarks", {
        "seed": 0, "out": "", "cases": "1x16,2x16,3x16", "reps": 5, "warmups": 2,
    }, {"cases": "comma list of DxN, e.g. 1x16,3x16"}),
    "train": _Command(cmd_train, "train a model on a generated dataset", {
        "seed": 0, "out": "train-out", "data": "", "variant": "tp",
        "steps": 0, "epochs": 0, "batch_size": 4, "grid_l": 8, "hidden": 16,
        "branches": 3, "processor": "mlp", "truncation_order": 1,
        "lr0": 1e-2, "test_count": 64, "checkpoint_every": 500, "resume": False,
    }, {}),
    "eval": _Command(cmd_eval, "evaluate a checkpoint on the held-out split", {
        "out": "", "data": "", "checkpoint": "",
    }, {}),
}
_COMMON_HELP = {"seed": "RNG seed", "out": "output directory"}


def _flag_type(default) -> Callable[[str], object]:
    """A flag's value parses as its config-file value does."""
    def parse(value: str):
        return _coerce(value, default)

    parse.__name__ = type(default).__name__  # argparse: "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ikno", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--config", help="key = value config file; flags override")
        for key, default in cmd.options.items():
            parse = ({"action": "store_true"} if isinstance(default, bool)
                     else {"type": _flag_type(default)})
            p.add_argument(f"--{key.replace('_', '-')}", default=argparse.SUPPRESS,
                           help=cmd.option_help.get(key, _COMMON_HELP.get(key)),
                           **parse)
        p.set_defaults(func=cmd.run, defaults=cmd.options)
    return parser


def main(argv=None) -> int:
    _apply_thread_cap()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # library errors surface as named failures
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
