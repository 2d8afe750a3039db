"""Tests of the benchmark's own arithmetic and of its declared metrics.

    python3 -m pytest perfbench/selftest.py

They need neither numpy nor ikno and run in well under a second. The file
name keeps them out of the repository's default test collection, so that
the suite's wall-clock gates run in the same process state as without the
benchmark.
"""

from __future__ import annotations

import json
import math
import sys
import types
from pathlib import Path

import pytest

import benchstats
import run
import tracing
import worker

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# -- percentiles and their sample counts --------------------------------------


def test_percentile_interpolates_between_order_statistics():
    values = [float(v) for v in range(10, 0, -1)]  # 10..1, unsorted on purpose
    assert benchstats.percentile(values, 50) == pytest.approx(5.5)
    assert benchstats.percentile(values, 90) == pytest.approx(9.1)
    assert benchstats.percentile(values, 0) == 1.0
    assert benchstats.percentile(values, 100) == 10.0
    assert benchstats.percentile([7.0], 90) == 7.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        benchstats.percentile([], 50)
    with pytest.raises(ValueError):
        benchstats.percentile([1.0], 101)


@pytest.mark.parametrize("n, beyond", [(1, 0), (10, 1), (11, 1), (100, 10), (101, 10), (111, 11)])
def test_samples_beyond_p90(n, beyond):
    assert benchstats.samples_beyond(n, 90) == beyond
    values = list(range(n))
    p90 = benchstats.percentile(values, 90)
    assert sum(v > p90 for v in values) == beyond


def test_relative_spread_is_iqr_over_median():
    assert benchstats.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)
    assert benchstats.relative_spread([10.0] * 10) == 0.0


def test_end_to_end_metrics_from_a_worker_result():
    res = {
        "durations_ms": [10.0, 20.0, 30.0, 40.0],
        "attempted": 5,
        "failed": 1,
        "samples_per_op": 4,
        "wall_s": 2.0,
        "peak_rss_mb": 300.5,
    }
    m = run.end_to_end(res, setups=[1.0, 3.0, 2.0])
    assert m["setup_s"] == 2.0
    assert m["samples_per_s"] == pytest.approx(4 * 4 / 2.0)  # failed op not counted
    assert m["op_ms_p50"] == pytest.approx(25.0)
    assert m["op_ms_p90"] == pytest.approx(37.0)
    assert m["peak_rss_mb"] == 300.5


# -- failed ops ---------------------------------------------------------------


class _ScriptedRun:
    """Op i returns results[i]; an exception instance is raised instead."""

    samples_per_op = 1

    def __init__(self, results):
        self.results = list(results)
        self.i = 0

    def op(self):
        out = self.results[self.i]
        self.i += 1
        if isinstance(out, Exception):
            raise out
        return out

    def accept(self, out):
        return math.isfinite(out)


def test_failed_ops_are_counted_against_attempted():
    loop = worker.Loop(_ScriptedRun([1.0, float("nan"), RuntimeError("boom"), 2.0, float("inf")]))
    for _ in range(5):
        loop.one()
    assert loop.attempted == 5
    assert loop.failed == 3
    assert len(loop.durations_ns) == 2  # only successful ops are timed
    assert loop.first_error == "non-finite result"  # the NaN came before the raise
    assert benchstats.failed_frac(loop.attempted, loop.failed) == pytest.approx(0.6)


def test_failed_frac_rejects_impossible_counts():
    assert benchstats.failed_frac(10, 0) == 0.0
    with pytest.raises(ValueError):
        benchstats.failed_frac(0, 0)
    with pytest.raises(ValueError):
        benchstats.failed_frac(3, 4)


# -- spans and self time ------------------------------------------------------

MS = 1_000_000  # ns


def _nested_op():
    """One training op, times in ms (scaled to ns):

    op 0-100 > loss_and_grad 5-95 > forward 10-50 > encode 10-30 > ad 12-22
    > build 13-17 > build 14-16 (nested build: counted once) and apply 18-21;
    loss_and_grad > backward 60-90 > apply 70-80; op > optimizer_step 96-99.
    """
    rows = [
        ("op", 0, 100, -1),
        ("training.loss_and_grad", 5, 95, 0),
        ("model.forward", 10, 50, 1),
        ("model.encode", 10, 30, 2),
        ("resolvent.ad", 12, 22, 3),
        ("resolvent.build", 13, 17, 4),
        ("resolvent.build", 14, 16, 5),
        ("resolvent.apply", 18, 21, 4),
        ("autodiff.backward", 60, 90, 1),
        ("resolvent.apply", 70, 80, 8),
        ("training.optimizer_step", 96, 99, 0),
    ]
    return [(name, s * MS, e * MS, p) for name, s, e, p in rows]


def test_self_time_subtracts_children():
    selfs = tracing.self_times(_nested_op())
    assert [s // MS for s in selfs] == [100 - 90 - 3, 90 - 40 - 30, 40 - 20, 20 - 10, 10 - 4 - 3,
                                        4 - 2, 2, 3, 30 - 10, 10, 3]


def test_union_counts_overlaps_once():
    assert tracing.union_ns([]) == 0
    assert tracing.union_ns([(0, 10), (5, 15), (20, 25), (21, 22)]) == 20
    assert tracing.union_ns([(3, 4), (0, 10)]) == 10


def test_per_op_layers_split_by_parent():
    [m] = tracing.per_op_layers(_nested_op())
    assert m["op_ms"] == 100
    assert m["covered_frac"] == pytest.approx(0.93)
    assert m["encode_self_ms"] == 10
    assert m["backward_self_ms"] == 20
    assert m["build_ms"] == 4 and m["builds"] == 1
    assert m["apply_fwd_ms"] == 3
    assert m["apply_bwd_ms"] == 10
    assert m["loss_and_grad_ms"] == 90
    assert m["optimizer_step_ms"] == 3


def test_spans_outside_an_op_are_ignored():
    spans = _nested_op() + [("resolvent.build", 200 * MS, 210 * MS, -1)]
    [m] = tracing.per_op_layers(spans)
    assert m["builds"] == 1


def test_median_layers_takes_the_median_per_figure():
    ops = [{"a": 1.0, "b": 5}, {"a": 3.0, "b": 5}, {"a": 2.0, "b": 5}]
    assert tracing.median_layers(ops) == {"a": 2.0, "b": 5}


def test_tracer_records_nesting_and_rejects_misordered_exit():
    ticks = iter(range(100))
    t = tracing.Tracer(clock=lambda: next(ticks))
    outer = t.enter("op")
    inner = t.enter("model.encode")
    t.exit(inner)
    t.exit(outer)
    assert t.spans() == [("op", 0, 3, -1), ("model.encode", 1, 2, 0)]
    a = t.enter("x")
    t.enter("y")
    with pytest.raises(RuntimeError):
        t.exit(a)


def test_hooks_wrap_the_looked_up_attribute_and_skip_missing(monkeypatch):
    mod = types.ModuleType("fake_layer")

    class Thing:
        def method(self, x):
            return x + 1

    mod.fn = lambda x: 2 * x
    mod.Thing = Thing
    monkeypatch.setitem(sys.modules, "fake_layer", mod)
    original = mod.fn
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(
        tracer,
        span_hooks=[("fake_layer", "fn", "layer.fn"), ("fake_layer", "gone", "layer.gone"),
                    ("no_such_module_xyz", "f", "x.f")],
        count_hooks=[("fake_layer", "Thing.method", "layer.method")],
    )
    assert tracer.missing == ["fake_layer.gone", "no_such_module_xyz.f"]
    hooks.install()
    assert mod.fn(3) == 6 and Thing().method(1) == 2 and Thing().method(2) == 3
    hooks.remove()
    assert mod.fn is original
    assert mod.fn(1) == 2  # no longer recorded
    assert [s[0] for s in tracer.spans()] == ["layer.fn"]
    assert tracer.count("layer.method") == 2


# -- declared metrics ---------------------------------------------------------


def test_benchmark_json_matches_what_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_every_layer_metric_has_a_prediction():
    preds = json.loads((HERE / "predictions.json").read_text())["predictions"]
    assert [p["layer"] for p in preds] == list(run.PER_LAYER)
    for p in preds:
        assert set(p["moves"]) <= set(run.END_TO_END), p["layer"]
        assert set(p["on"]) | set(p["no_change_on"]) <= set(run.WORKLOADS), p["layer"]
        assert not set(p["on"]) & set(p["no_change_on"]), p["layer"]
