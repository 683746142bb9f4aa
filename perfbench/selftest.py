"""Fast self-test of the benchmark harness (a few seconds).

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, the percentile
choice, the job tally, that ``BENCHMARK.json`` names exactly the metrics
the harness reports, and then traces tiny real runs: the (3,4;8,<=12)
bootstrap store against the brute-force oracle, and one small closure plan.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tracing import (  # noqa: E402
    Span,
    Tracer,
    layer_metrics,
    percentile,
    self_times,
    tail_percentile,
    unit_of,
)
from workloads import Jobs  # noqa: E402

PASSED = []


def check(ok: bool, label: str) -> None:
    if not ok:
        print(f"selftest FAILED: {label}", file=sys.stderr)
        sys.exit(1)
    PASSED.append(label)


def span(name, start, end, parent, note=None) -> Span:
    s = Span(name, start, parent)
    s.end = end
    s.note = note
    return s


def synthetic_tree() -> None:
    spans = [
        span("pipeline.store", 0.0, 10.0, -1),                # 0
        span("extend.glue_extend", 1.0, 4.0, 0),              # 1
        span("canon.canonical_form", 1.5, 2.0, 1),            # 2
        span("pipeline.store", 5.0, 9.0, 0),                  # 3
        span("store.write", 6.0, 7.0, 3, {"graphs": 4, "bytes": 100}),  # 4
        span("x", 20.0, 30.0, -1),                            # 5
        span("y", 21.0, 25.0, 5),                             # 6 overlaps 7
        span("y", 23.0, 27.0, 5),                             # 7
    ]
    own = self_times(spans)
    want = [3.0, 2.5, 0.5, 3.0, 1.0, 4.0, 4.0, 4.0]
    check(all(abs(a - b) < 1e-12 for a, b in zip(own, want)),
          f"self times {own} == {want}")
    m = layer_metrics(spans)
    check(m["pipeline.store.calls"] == 2, "store calls counted")
    check(m["pipeline.store_hit_ratio"] == 0.5, "a store that writes is a miss")
    check(abs(m["pipeline.self_s"] - 6.0) < 1e-12, "orchestration self time")
    check(m["extend.leaves"] == 1 and m["extend.leaf_yield"] == 4.0,
          "leaves and yield from the span tree")
    check(m["store.bytes_written"] == 100, "bytes written from notes")


def percentiles() -> None:
    check(percentile(list(range(1, 101)), 50) == 50, "nearest-rank p50")
    check(percentile([5.0], 98) == 5.0, "percentile of one sample")
    check(tail_percentile(569) == 98.0, "tail percentile of 569 hosts is p98")
    check(tail_percentile(1000) == 99.0, "tail percentile of 1000 hosts is p99")
    check(tail_percentile(5) == 0.0, "no tail percentile for 5 hosts")


def tally() -> None:
    jobs = Jobs()
    jobs.run("ok", lambda: True)
    jobs.run("wrong", lambda: False)
    jobs.run("raises", lambda: 1 / 0)
    check((jobs.attempted, jobs.failed) == (3, 2), "job tally")
    check(len(jobs.problems) == 2 and "ZeroDivisionError" in jobs.problems[1],
          "raising job recorded")


def benchmark_file() -> None:
    """BENCHMARK.json names exactly the metrics the harness reports."""
    import json

    from run import END_TO_END

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    layers = set(layer_metrics([])) | {"trace.base_wall_s", "trace.overhead_ratio"}
    check({m["name"] for m in bench["per_layer"]} == layers,
          "per_layer lists every traced metric")
    check(all(m["unit"] == unit_of(m["name"]) for m in bench["per_layer"]),
          "per_layer units match")
    check({(m["name"], m["unit"]) for m in bench["end_to_end"]} == set(END_TO_END),
          "end_to_end lists every untraced metric")


def traced_tiny_runs() -> None:
    from ramsey3k import canon, data, degseq, extend, store
    from ramsey3k.oracle import brute_force_graphs
    from ramsey3k.pipeline import Bootstrap

    original = canon.canonical_form
    scratch = os.path.join(HERE, ".work", "tmp")
    os.makedirs(scratch, exist_ok=True)
    root = tempfile.mkdtemp(dir=scratch)
    try:
        with Tracer() as tracer:
            check(extend.canonical_form is not original, "from-imports are patched")
            got = Bootstrap(root).store(4, 8, 12)
            table = data.builtin_table(10)
            plan = degseq.plan_closure(6, 16, 32, table)
            certified = degseq.closure_sufficiency_check(
                6, 16, 32, plan, table).certified
    finally:
        shutil.rmtree(root)
    check(extend.canonical_form is original and canon.canonical_form is original,
          "originals restored")
    read = store.GraphStore.__dict__["read"]
    check(isinstance(read, classmethod) and not hasattr(read.__func__, "__wrapped__"),
          "classmethod restored")
    want = brute_force_graphs(8, 4, 12)
    check(got.forms() == set(want), "(3,4;8,<=12) store equals the oracle")
    check(certified, "plan for (6;16,<=32) certifies")
    m = layer_metrics(tracer.spans)
    check(m["extend.glue_extend.calls"] > 0 and m["extend.leaves"] > 0,
          "glue hosts and leaves traced")
    check(m["degseq.plan_closure.calls"] >= 1 and m["degseq.plan_rounds"] >= 1,
          "plan and its certificate rounds traced")
    check(m["store.write.calls"] > 0 and m["pipeline.store.calls"] > 0,
          "store layer traced")
    total = sum(sp.duration for sp in tracer.spans if sp.parent < 0)
    check(abs(sum(self_times(tracer.spans)) - total) < 1e-6,
          "self times add up to the top-level spans")


def main() -> int:
    synthetic_tree()
    percentiles()
    tally()
    benchmark_file()
    traced_tiny_runs()
    print(f"selftest: {len(PASSED)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
