import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from ikno.bench import run_bench
from ikno.cli import _COMMANDS, _resolve, build_parser, main, merge_options, parse_config_file
from ikno.reports import validate_report
from ikno.verify import run_all


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestConfigMerging:
    def test_parse_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("num-samples = 8  # small\n\nkind = csines\n")
        assert parse_config_file(cfg) == {"num_samples": "8", "kind": "csines"}

    def test_parse_rejects_bad_line(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("just-a-word\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(cfg)

    def test_precedence_defaults_config_flags(self):
        merged = merge_options(
            {"steps": 10, "lr0": 0.1, "variant": "tp"},
            {"steps": "20", "lr0": "0.5"},
            {"steps": 30},
        )
        assert merged == {"steps": 30, "lr0": 0.5, "variant": "tp"}

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            merge_options({"steps": 10}, {"stpes": "20"}, {})

    def test_bool_coercion(self):
        merged = merge_options({"resume": False}, {"resume": "true"}, {})
        assert merged["resume"] is True


# Every command's options, spelled as flags and config keys. Pinned here so
# that an option is never added, renamed or dropped unnoticed.
OPTIONS = {
    "gen-data": ["kind", "seed", "out", "num-samples", "num-points", "num-queries",
                 "max-mode", "solver-res"],
    "verify": ["seed", "out", "cases", "inject-fault"],
    "finite-order-study": ["seed", "out", "data", "steps", "grid-l", "hidden",
                           "test-count", "batch-size"],
    "bench": ["seed", "out", "cases", "reps", "warmups"],
    "train": ["seed", "out", "data", "variant", "steps", "epochs", "batch-size",
              "grid-l", "hidden", "branches", "processor", "truncation-order", "lr0",
              "test-count", "checkpoint-every", "resume"],
    "eval": ["out", "data", "checkpoint"],
}


def _not_default(default):
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 7
    if isinstance(default, float):
        return default * 3 + 0.25
    return "x" + default


class TestOptionTable:
    def test_option_names_pinned(self):
        declared = {name: [key.replace("_", "-") for key in cmd.options]
                    for name, cmd in _COMMANDS.items()}
        assert declared == OPTIONS

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, keys in OPTIONS.items() for key in keys
    ])
    def test_flag_and_config_key_parse_alike(self, tmp_path, command, key):
        defaults = _COMMANDS[command].options
        name = key.replace("-", "_")
        value = _not_default(defaults[name])
        if isinstance(value, bool):
            flag, text = [f"--{key}"], str(value).lower()
        else:
            flag, text = [f"--{key}", str(value)], str(value)
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"{key} = {text}\n")
        from_flag = _resolve(build_parser().parse_args([command, *flag]))
        from_config = _resolve(build_parser().parse_args([command, "--config", str(cfg)]))
        assert from_flag == from_config == {**defaults, name: value}
        assert type(from_flag[name]) is type(from_config[name]) is type(defaults[name])

    def test_eval_has_no_seed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\n")
        assert main(["eval", "--config", str(cfg)]) == 2
        assert "unknown config keys: seed" in capsys.readouterr().err


class TestGenData:
    def test_csines_deterministic(self, tmp_path):
        args = ["gen-data", "--kind", "csines", "--num-samples", "4",
                "--num-points", "8", "--num-queries", "8", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("input_coords", "input_values", "query_coords", "target_values"):
            assert _sha(tmp_path / "a" / f"{name}.f64le") == _sha(
                tmp_path / "b" / f"{name}.f64le"
            )

    def test_gen_report_schema_valid(self, tmp_path):
        assert main(["gen-data", "--kind", "csines", "--num-samples", "2",
                     "--num-points", "8", "--num-queries", "8",
                     "--out", str(tmp_path / "t")]) == 0
        report = json.loads((tmp_path / "t" / "gen_report.json").read_text())
        validate_report(report)
        assert report["report"] == "gen-data"

    @pytest.mark.parametrize("kind", ["nope", "toy-advection"])
    def test_unknown_kind_exits_2(self, tmp_path, capsys, kind):
        assert main(["gen-data", "--kind", kind, "--out", str(tmp_path)]) == 2
        assert "unknown dataset kind" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,key,value", [
        ("poisson-gauss", "max-mode", "0"), ("csines", "solver-res", "3"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_other_kinds_option_exits_2(self, tmp_path, capsys, kind, key, value, source):
        args = ["gen-data", "--kind", kind, "--num-samples", "1",
                "--out", str(tmp_path / "d")]
        if source == "flag":
            args += [f"--{key}", value]
        else:
            cfg = tmp_path / "gen.cfg"
            cfg.write_text(f"{key} = {value}\n")
            args += ["--config", str(cfg)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert key in err and kind in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("kind,key,value", [
        ("csines", "max-mode", "2"), ("poisson-gauss", "solver-res", "17"),
    ])
    def test_own_kinds_option_accepted(self, tmp_path, kind, key, value):
        assert main(["gen-data", "--kind", kind, "--num-samples", "1",
                     "--num-points", "8", "--num-queries", "8", f"--{key}", value,
                     "--out", str(tmp_path / "d")]) == 0

    @pytest.mark.parametrize("kind", ["csines", "poisson-gauss"])
    @pytest.mark.parametrize("key", ["num-samples", "num-points", "num-queries"])
    def test_empty_dataset_exits_2(self, tmp_path, capsys, kind, key):
        assert main(["gen-data", "--kind", kind, f"--{key}", "0",
                     "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: {key.replace('-', '_')} must be >= 1, got 0\n"
        assert not (tmp_path / "d").exists()

    def test_config_file_drives_generation(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("kind = csines\nnum-samples = 3\nnum-points = 8\n"
                       "num-queries = 8\nseed = 5\n")
        assert main(["gen-data", "--config", str(cfg),
                     "--out", str(tmp_path / "d")]) == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["meta"]["num_samples"] == 3

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus-key = 1\n")
        assert main(["gen-data", "--config", str(cfg)]) == 2
        assert "unknown config keys" in capsys.readouterr().err


class TestVerify:
    def test_small_verify_passes(self, tmp_path, capsys):
        assert main(["verify", "--cases", "5", "--seed", "1",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        validate_report(report)
        assert report["all_passed"] is True
        times = [check["wall_time_s"] for check in report["checks"]]
        assert len(times) == 8 and min(times) >= 0.0
        assert sum(times) <= report["wall_time_s"]

    @pytest.mark.parametrize("cases", [0, -1])
    def test_run_all_rejects_empty_cases(self, cases):
        with pytest.raises(ValueError, match=f"cases must be >= 1, got {cases}"):
            run_all(cases=cases)

    def test_zero_cases_exits_2(self, capsys):
        # zero random instances would report eight vacuous passes
        assert main(["verify", "--cases", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: cases must be >= 1, got 0\n"
        assert "[PASS]" not in captured.out

    def test_fault_injection_fails(self, capsys):
        assert main(["verify", "--cases", "5", "--inject-fault",
                     "tp-as-vanilla"]) == 1
        captured = capsys.readouterr()
        assert "[FAIL]" in captured.out
        assert "resolvent-oracle-equivalence" in captured.err

    def test_truncated_fault_injection_fails(self, tmp_path, capsys):
        assert main(["verify", "--cases", "5", "--inject-fault",
                     "truncated-order-off-by-one", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] resolvent-oracle-equivalence" in captured.out
        assert captured.out.count("[FAIL]") == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        (oracle,) = [c for c in report["checks"] if not c["passed"]]
        assert "truncated p=" in oracle["detail"]

    def test_tp_factor_fault_injection_fails_the_cross_kernel_check(self, tmp_path, capsys):
        assert main(["verify", "--cases", "5", "--inject-fault",
                     "tp-factors-unrotated", "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert "[FAIL] cross-kernel-contraction" in captured.out
        assert captured.out.count("[FAIL]") == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        (check,) = [c for c in report["checks"] if not c["passed"]]
        assert check["detail"].startswith("tp ")

    def test_unknown_fault_exits_2(self, capsys):
        assert main(["verify", "--cases", "1", "--inject-fault", "no-such-fault"]) == 2
        assert "unknown fault 'no-such-fault'" in capsys.readouterr().err


class TestBenchCli:
    def test_bench_small_case(self, tmp_path, capsys):
        assert main(["bench", "--cases", "1x8", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "bench_report.json").read_text())
        validate_report(report)
        variants = {c["variant"] for c in report["cases"]}
        assert {"vanilla", "tp", "naive"} <= variants

    def test_bad_cases_flag_exits_2(self, capsys):
        assert main(["bench", "--cases", "garbage"]) == 2
        assert "bad --cases" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["0x16", "-1x4", "1x0"])
    def test_empty_case_exits_2(self, capsys, case):
        assert main(["bench", "--cases", f"1x4,{case}"]) == 2
        assert f"bad bench case {case}" in capsys.readouterr().err

    @pytest.mark.parametrize("case", [(0, 16), (-1, 4), (1, 0)])
    def test_run_bench_rejects_empty_case(self, case):
        with pytest.raises(ValueError, match="bad bench case {}x{}".format(*case)):
            run_bench(cases=((1, 4), case))


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("data") / "csines"
    assert main(["gen-data", "--kind", "csines", "--num-samples", "12",
                 "--num-points", "8", "--num-queries", "8", "--seed", "0",
                 "--out", str(d)]) == 0
    return d


class TestTrainEval:
    def test_missing_data_exits_1(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_unknown_variant_exits_2(self, dataset_dir, tmp_path, capsys):
        argv = ["train", "--data", str(dataset_dir), "--variant", "nope",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: unknown variant 'nope'\n"
        assert not (tmp_path / "run").exists()

    def test_negative_truncation_order_exits_2(self, dataset_dir, tmp_path, capsys):
        argv = ["train", "--data", str(dataset_dir), "--variant", "truncated",
                "--truncation-order", "-1", "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: truncation_order must be >= 0, got -1\n"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("extra,message", [
        (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["--batch-size", "0", "--steps", "4"], "batch_size must be >= 1, got 0"),
        (["--checkpoint-every", "0"], "checkpoint_every must be >= 1, got 0"),
        (["--checkpoint-every", "-1"], "checkpoint_every must be >= 1, got -1"),
        (["--epochs", "-2"], "epochs must be >= 0, got -2"),
        (["--steps", "-3"], "steps must be >= 0, got -3"),
    ], ids=["batch-size-0", "batch-size-0-steps-4", "checkpoint-every-0",
            "checkpoint-every-neg", "epochs-neg", "steps-neg"])
    def test_empty_count_exits_2(self, dataset_dir, tmp_path, extra, message):
        # a subprocess with a timeout: checkpoint-every 0 once trained forever
        argv = [sys.executable, "-m", "ikno.cli", "train", "--data", str(dataset_dir),
                "--grid-l", "4", "--hidden", "4", "--branches", "1",
                "--test-count", "4", "--out", str(tmp_path / "run"), *extra]
        out = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert out.returncode == 2
        assert out.stderr == f"error: {message}\n"
        assert not (tmp_path / "run").exists()

    def test_train_then_eval(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["train", "--data", str(dataset_dir), "--variant", "tp",
                "--steps", "4", "--grid-l", "4", "--hidden", "8",
                "--branches", "1", "--test-count", "4", "--batch-size", "2",
                "--checkpoint-every", "2", "--out", str(out)]
        assert main(argv) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        validate_report(metrics)
        assert metrics["steps_done"] == 4
        assert metrics["stopped_early"] is False
        assert metrics["stop_reason"] == "completed"
        log_lines = (out / "train_log.jsonl").read_text().splitlines()
        assert len(log_lines) == 4

        assert main(["eval", "--data", str(dataset_dir),
                     "--checkpoint", str(out / "checkpoint"),
                     "--out", str(tmp_path / "ev")]) == 0
        ev = json.loads((tmp_path / "ev" / "eval_report.json").read_text())
        validate_report(ev)
        assert ev["metrics"]["median_rel_l1_pct"] == pytest.approx(
            metrics["final"]["median_rel_l1_pct"]
        )

    def test_train_deterministic(self, dataset_dir, tmp_path):
        argv = ["train", "--data", str(dataset_dir), "--variant", "vanilla",
                "--steps", "3", "--grid-l", "4", "--hidden", "8",
                "--branches", "1", "--test-count", "4", "--batch-size", "2"]
        assert main(argv + ["--out", str(tmp_path / "r1")]) == 0
        assert main(argv + ["--out", str(tmp_path / "r2")]) == 0
        a = _sha(tmp_path / "r1" / "checkpoint" / "params.f64le")
        b = _sha(tmp_path / "r2" / "checkpoint" / "params.f64le")
        assert a == b

    def test_resume_matches_uninterrupted(self, dataset_dir, tmp_path, monkeypatch):
        base = ["train", "--data", str(dataset_dir), "--variant", "tp",
                "--grid-l", "4", "--hidden", "8", "--branches", "1",
                "--test-count", "4", "--batch-size", "2",
                "--checkpoint-every", "2", "--steps", "6"]
        assert main(base + ["--out", str(tmp_path / "full")]) == 0
        # simulate a kill right after the first checkpoint, then resume
        import ikno.experiments as exp

        orig = exp.save_checkpoint
        calls = {"n": 0}

        def flaky(*a, **k):
            orig(*a, **k)
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt

        monkeypatch.setattr(exp, "save_checkpoint", flaky)
        with pytest.raises(KeyboardInterrupt):
            main(base + ["--out", str(tmp_path / "part")])
        monkeypatch.setattr(exp, "save_checkpoint", orig)
        # earlier versions stored the fixed single encoding level in the config
        # and a flat (branches * (1 + 3d),) kernel segment
        manifest = tmp_path / "part" / "checkpoint" / "manifest.json"
        saved = json.loads(manifest.read_text())
        saved["meta"]["model"]["nerf_levels"] = 1
        assert saved["meta"]["segments"]["kernel"] == [1, 7]
        saved["meta"]["segments"]["kernel"] = [7]
        manifest.write_text(json.dumps(saved))
        assert main(base + ["--resume", "--out", str(tmp_path / "part")]) == 0
        a = _sha(tmp_path / "full" / "checkpoint" / "params.f64le")
        b = _sha(tmp_path / "part" / "checkpoint" / "params.f64le")
        assert a == b


class TestThreads:
    def test_ikno_threads_sets_blas_caps(self):
        code = (
            "import os, ikno.cli as c; c._apply_thread_cap(); "
            "print(os.environ['OMP_NUM_THREADS'], os.environ['OPENBLAS_NUM_THREADS'])"
        )
        env = dict(os.environ, IKNO_THREADS="2")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env.pop(var, None)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["2", "2"]

    def test_ikno_threads_lowers_larger_counts_only(self):
        code = (
            "import os, ikno.cli as c; c._apply_thread_cap(); print(*(os.environ[v] for v in "
            "('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS', 'MKL_NUM_THREADS', "
            "'NUMEXPR_NUM_THREADS')))"
        )
        env = dict(os.environ, IKNO_THREADS="2", OMP_NUM_THREADS="1",
                   OPENBLAS_NUM_THREADS="8", MKL_NUM_THREADS="auto")
        env.pop("NUMEXPR_NUM_THREADS", None)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["1", "2", "2", "2"]

    def test_bad_ikno_threads_exits(self):
        env = dict(os.environ, IKNO_THREADS="abc")
        out = subprocess.run(
            [sys.executable, "-m", "ikno.cli", "verify", "--cases", "1"],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode != 0
        assert "IKNO_THREADS" in out.stderr
