"""Span tracing from outside the program.

A :class:`Tracer` replaces the public functions of the ``ramsey3k`` layers
with thin wrappers that record one span per call: name, start, end and the
span that was open when the call began.  Every module attribute bound to
the original object is replaced, so calls made inside the package (through
``from .canon import canonical_form`` and the like) are caught as well.
:meth:`Tracer.restore` puts every original back.

Spans are kept in memory; :func:`layer_metrics` turns them into the
per-layer metrics and :meth:`Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Optional

# (module, attribute path, span name).  An attribute path with a dot names
# a method on a class of that module.
TARGETS = (
    ("ramsey3k.graphs", "decode_graph6", "graphs.decode_graph6"),
    ("ramsey3k.graphs", "validate_member", "graphs.validate_member"),
    ("ramsey3k.canon", "canonical_form", "canon.canonical_form"),
    ("ramsey3k.canon", "canonical_with_automorphisms", "canon.automorphisms"),
    ("ramsey3k.indepcache", "independent_sets", "indepcache.independent_sets"),
    ("ramsey3k.indepcache", "build_independence_table",
     "indepcache.build_independence_table"),
    ("ramsey3k.extend", "glue_extend", "extend.glue_extend"),
    ("ramsey3k.degseq", "feasible_sequences", "degseq.feasible_sequences"),
    ("ramsey3k.degseq", "min_edge_bound", "degseq.min_edge_bound"),
    ("ramsey3k.degseq", "closure_sufficiency_check",
     "degseq.closure_sufficiency_check"),
    ("ramsey3k.degseq", "plan_closure", "degseq.plan_closure"),
    ("ramsey3k.degseq", "propagate_bounds", "degseq.propagate_bounds"),
    ("ramsey3k.store", "GraphStore.read", "store.read"),
    ("ramsey3k.store", "GraphStore.write", "store.write"),
    ("ramsey3k.pipeline", "Bootstrap.value", "pipeline.value"),
    ("ramsey3k.pipeline", "Bootstrap.store", "pipeline.store"),
    ("ramsey3k.oracle", "verify_minimality", "oracle.verify_minimality"),
    ("ramsey3k.oracle", "add_edge_closure_check",
     "oracle.add_edge_closure_check"),
    ("ramsey3k.oracle", "gv_consistency_check", "oracle.gv_consistency_check"),
)


def _store_write_note(result, args) -> dict:
    store, path = args[0], args[1]
    size = os.path.getsize(path) + os.path.getsize(path + ".meta")
    return {"graphs": len(store), "bytes": size}


# extra figures recorded on a span when its call returns
NOTES: dict = {
    "indepcache.independent_sets": lambda r, a: {"sets": len(r)},
    "indepcache.build_independence_table":
        lambda r, a: {"table_bytes": 1 << a[0].n},
    "store.read": lambda r, a: {"graphs": len(r)},
    "store.write": _store_write_note,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "note")

    def __init__(self, name: str, start: float, parent: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent      # index into the span list, -1 at the top
        self.note: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []   # (owner, attribute, original value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def wrap(self, fn: Callable, name: str) -> Callable:
        note = NOTES.get(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, clock(), stack[-1] if stack else -1)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if note is not None:
                span.note = note(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        import importlib

        # import every layer first, so each later binding of a name exists
        modules = {m: importlib.import_module(m) for m, _, _ in TARGETS}
        for module_name, attr, name in TARGETS:
            module = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name))
                else:
                    new = self.wrap(raw, name)
                self._patched.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ramsey3k"
                                       or mod_name.startswith("ramsey3k.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched = []

    def dump(self, path: str) -> None:
        """Write spans as JSON lines, each with its self time."""
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            for i, (span, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({
                    "id": i, "name": span.name, "parent": span.parent,
                    "start": span.start, "end": span.end, "self": own,
                    **(span.note or {})}) + "\n")


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval that its direct
    children cover (children overlapping each other count once)."""
    children: dict = {}
    for i, span in enumerate(spans):
        if span.parent >= 0:
            children.setdefault(span.parent, []).append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c].start):
            lo = max(spans[c].start, reach, span.start)
            hi = min(spans[c].end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


# percentiles tried for the tail of the per-host time, highest first
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def tail_percentile(n: int) -> float:
    """Highest tried percentile that leaves at least ten samples beyond it,
    or 0 when there are too few samples for any."""
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 0.0


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics (name -> value) from one traced job."""
    selfs = self_times(spans)
    calls: dict = {}
    own: dict = {}
    for span, s in zip(spans, selfs):
        calls[span.name] = calls.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + s

    def by_name(name):
        return [sp for sp in spans if sp.name == name]

    def note_sum(name, key):
        return sum((sp.note or {}).get(key, 0) for sp in by_name(name))

    m: dict = {}
    for name in ("canon.canonical_form", "canon.automorphisms",
                 "extend.glue_extend",
                 "indepcache.build_independence_table",
                 "indepcache.independent_sets",
                 "degseq.plan_closure", "degseq.closure_sufficiency_check",
                 "degseq.feasible_sequences",
                 "store.read", "store.write", "pipeline.store"):
        m[f"{name}.calls"] = calls.get(name, 0)
    for name in ("canon.canonical_form", "canon.automorphisms",
                 "extend.glue_extend",
                 "indepcache.build_independence_table",
                 "indepcache.independent_sets",
                 "degseq.plan_closure", "degseq.closure_sufficiency_check",
                 "degseq.feasible_sequences", "degseq.min_edge_bound",
                 "degseq.propagate_bounds",
                 "store.read", "store.write",
                 "graphs.decode_graph6", "graphs.validate_member",
                 "oracle.verify_minimality", "oracle.add_edge_closure_check",
                 "oracle.gv_consistency_check"):
        m[f"{name}.self_s"] = own.get(name, 0.0)

    hosts_ms = [sp.duration * 1e3 for sp in by_name("extend.glue_extend")]
    tail = tail_percentile(len(hosts_ms))
    m["extend.glue_extend.p50_ms"] = percentile(hosts_ms, 50) if hosts_ms else 0.0
    m["extend.glue_extend.ptail_ms"] = percentile(hosts_ms, tail) if tail else 0.0
    m["extend.glue_extend.ptail_pct"] = tail
    leaves = sum(1 for sp in by_name("canon.canonical_form")
                 if sp.parent >= 0 and spans[sp.parent].name == "extend.glue_extend")
    stored = note_sum("store.write", "graphs")
    m["extend.leaves"] = leaves
    m["extend.leaf_yield"] = stored / leaves if leaves else 0.0

    m["indepcache.table_bytes"] = note_sum(
        "indepcache.build_independence_table", "table_bytes")
    m["indepcache.sets"] = note_sum("indepcache.independent_sets", "sets")

    plans = calls.get("degseq.plan_closure", 0)
    rounds = sum(1 for sp in by_name("degseq.closure_sufficiency_check")
                 if sp.parent >= 0 and spans[sp.parent].name == "degseq.plan_closure")
    m["degseq.plan_rounds"] = rounds / plans if plans else 0.0

    m["store.read.graphs"] = note_sum("store.read", "graphs")
    m["store.bytes_written"] = note_sum("store.write", "bytes")

    # a store request is a hit when it was served without generating (and
    # hence without writing) a store of its own
    writers = {sp.parent for sp in by_name("store.write")}
    requests = [i for i, sp in enumerate(spans) if sp.name == "pipeline.store"]
    hits = sum(1 for i in requests if i not in writers)
    m["pipeline.store_hit_ratio"] = hits / len(requests) if requests else 0.0
    m["pipeline.self_s"] = own.get("pipeline.store", 0.0) + own.get("pipeline.value", 0.0)
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "B"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    if name.endswith("plan_rounds"):
        return "checks/plan"
    return "count"
