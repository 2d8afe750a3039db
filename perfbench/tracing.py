"""In-memory span tracer and the per-layer arithmetic over its spans.

Spans are recorded by wrapping functions at the module attribute that
callers look up (``ikno.ops_ad.dense_inverse``, ``ikno.model._Graph.encode``,
...). A hook whose target no longer exists is listed as missing and simply
records zero calls, so a later refactor that renames a function changes
the counts instead of crashing the benchmark.

This module is pure Python: it imports neither numpy nor ikno, so its
arithmetic can be tested on hand-made spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from statistics import median

OP = "op"

# (module, attribute path, span name). Names are "<layer>.<what>"; several
# targets may share a name when they are the same layer reached through a
# different caller or construction.
SPAN_HOOKS = (
    ("ikno.training", "loss_and_grad", "training.loss_and_grad"),
    ("ikno.training", "optimizer_step", "training.optimizer_step"),
    ("ikno.training", "forward_graph", "model.forward"),
    ("ikno.model", "forward", "model.forward"),
    ("ikno.model", "_Graph.tokenize", "model.tokenize"),
    ("ikno.model", "_Graph.encode", "model.encode"),
    ("ikno.model", "_Graph.process", "model.process"),
    ("ikno.model", "_Graph.decode", "model.decode"),
    ("ikno.model", "vanilla_resolvent_ad", "resolvent.ad"),
    ("ikno.model", "tp_resolvent_ad", "resolvent.ad"),
    ("ikno.model", "truncated_ad", "resolvent.ad"),
    ("ikno.model", "dense_inverse", "resolvent.build"),
    ("ikno.ops_ad", "build_vanilla", "resolvent.build"),
    ("ikno.ops_ad", "build_tp", "resolvent.build"),
    ("ikno.ops_ad", "dense_inverse", "resolvent.build"),
    ("ikno.ops_ad", "apply_vanilla", "resolvent.apply"),
    ("ikno.ops_ad", "apply_tp", "resolvent.apply"),
    ("ikno.ops_ad", "mode_apply_ad", "resolvent.apply"),
    ("ikno.ops_ad", "mode_apply", "resolvent.apply"),
    ("ikno.ops_ad", "kron_apply", "resolvent.apply"),
    ("ikno.autodiff", "Tensor.backward", "autodiff.backward"),
)

# (module, attribute path, counter name): counted, not timed, because they
# run thousands of times per op.
COUNT_HOOKS = (("ikno.autodiff", "Tensor.__init__", "autodiff.tensors"),)


class Tracer:
    """Spans as parallel lists: name, start and end (ns), parent index."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []

    def enter(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(-1)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def exit(self, i: int) -> None:
        self.ends[i] = self.clock()
        top = self._stack.pop()
        if top != i:
            raise RuntimeError(f"span {i} closed while span {top} was open")

    def count(self, name: str) -> int:
        return self.counts.get(name, 0)

    def spans(self) -> list[tuple[str, int, int, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))

    def to_json(self) -> dict:
        return {
            "spans": [
                [name, start, end, parent]
                for name, start, end, parent in self.spans()
            ],
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def _span_wrapper(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(i)

    return wrapper


def _count_wrapper(tracer: Tracer, fn, name: str):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    value = vars(owner)[attr]
    return (owner, attr, value) if callable(value) else None


class Hooks:
    """Installs the tracer's wrappers; ``remove`` restores the originals."""

    def __init__(self, tracer: Tracer, span_hooks=SPAN_HOOKS, count_hooks=COUNT_HOOKS):
        self._plan: list[tuple[object, str, object, object]] = []
        for hooks, make in ((span_hooks, _span_wrapper), (count_hooks, _count_wrapper)):
            for module, path, name in hooks:
                found = _resolve(module, path)
                if found is None:
                    tracer.missing.append(f"{module}.{path}")
                    continue
                owner, attr, fn = found
                self._plan.append((owner, attr, fn, make(tracer, fn, name)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, fn, _ in self._plan:
            setattr(owner, attr, fn)


# -- arithmetic over spans ----------------------------------------------------


def union_ns(intervals) -> int:
    """Total length covered by (start, end) intervals, overlaps counted once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[int, int]]] = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_ns(children[i])
        for i, (name, start, end, parent) in enumerate(spans)
    ]


# span name -> the per-op figure that sums its whole duration, or its self time
_TOTAL_MS = {
    "model.tokenize": "tokenize_ms",
    "model.process": "process_ms",
    "training.loss_and_grad": "loss_and_grad_ms",
    "training.optimizer_step": "optimizer_step_ms",
}
_SELF_MS = {
    "model.encode": "encode_self_ms",
    "model.decode": "decode_self_ms",
    "autodiff.backward": "backward_self_ms",
}


def per_op_layers(spans) -> list[dict[str, float]]:
    """Per-layer times (ms) and counts for each root span named ``op``.

    ``covered_frac`` is the share of the op's wall time that named spans
    cover, which is what the op's own self time leaves. Build and apply
    spans count only where no span of the same layer encloses them; an
    apply span under ``autodiff.backward`` is backward work, any other
    apply span is forward work.
    """
    selfs = self_times(spans)
    n = len(spans)
    root = [-1] * n
    in_backward = [False] * n
    in_build = [False] * n
    in_apply = [False] * n
    ops: dict[int, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            if name == OP:
                root[i] = i
                ops[i] = dict.fromkeys(
                    ("op_ms", "covered_frac", *_TOTAL_MS.values(), *_SELF_MS.values(),
                     "build_ms", "apply_fwd_ms", "apply_bwd_ms"), 0.0)
                ops[i]["builds"] = 0
                ops[i]["op_ms"] = (end - start) / 1e6
                ops[i]["covered_frac"] = 1.0 - selfs[i] / (end - start) if end > start else 0.0
            continue
        if parent >= i:
            raise ValueError(f"span {i} has parent {parent}, which does not precede it")
        root[i] = root[parent]
        pname = spans[parent][0]
        in_backward[i] = in_backward[parent] or pname == "autodiff.backward"
        in_build[i] = in_build[parent] or pname == "resolvent.build"
        in_apply[i] = in_apply[parent] or pname == "resolvent.apply"
        if root[i] < 0:
            continue
        m = ops[root[i]]
        ms = (end - start) / 1e6
        if name in _TOTAL_MS:
            m[_TOTAL_MS[name]] += ms
        elif name in _SELF_MS:
            m[_SELF_MS[name]] += selfs[i] / 1e6
        elif name == "resolvent.build" and not in_build[i]:
            m["build_ms"] += ms
            m["builds"] += 1
        elif name == "resolvent.apply" and not in_apply[i]:
            m["apply_bwd_ms" if in_backward[i] else "apply_fwd_ms"] += ms
    return [ops[r] for r in sorted(ops)]


def median_layers(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-op figure."""
    if not per_op:
        raise ValueError("no traced ops")
    return {key: median([m[key] for m in per_op]) for key in per_op[0]}
