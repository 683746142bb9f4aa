import dataclasses
import math
import os
import re
import time

import pytest

from ramsey3k import cli, data, extend, pipeline
from ramsey3k.canon import canonical_form
from ramsey3k.degseq import (EXACT, INFINITE, LOWER, BoundEntry, ClosurePlan,
                             PlanRow, plan_closure)
from ramsey3k.graphs import Graph, GraphFormatError, encode_graph6
from ramsey3k.oracle import brute_force_graphs
from ramsey3k.pipeline import (
    Bootstrap,
    JobManifest,
    ManifestError,
    run_manifest,
    worker_count,
)
from ramsey3k.store import GraphStore, StoreError, read_lines, write_lines

from conftest import cycle


def write_inputs(tmp_path, name, graphs):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        for g in graphs:
            fh.write(encode_graph6(g) + "\n")
    return path


def oracle_manifest(tmp_path, k=3, n=5, e=5):
    """Certified manifest for the (k; n, <=e) box with oracle inputs."""
    plan = plan_closure(k, n, e, data.builtin_table(10))
    inputs = [(d, write_inputs(
        tmp_path, f"d{d}.g6",
        brute_force_graphs(n - d - 1, k - 1, ceiling).values()))
        for d, ceiling in plan.cover()]
    manifest = JobManifest(target_k=k, n=n, e_max=e, inputs=inputs, plan=plan)
    path = str(tmp_path / "job.manifest")
    manifest.write(path)
    return path


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = oracle_manifest(tmp_path)
        m = JobManifest.read(path)
        assert (m.target_k, m.n, m.e_max) == (3, 5, 5)
        assert m.plan is not None and len(m.plan.rows) >= 1
        # carrying a plan is what certifies a manifest
        assert not any(line.startswith("certified=") for line in read_lines(path))

    def test_cover_needs_a_certificate(self, tmp_path):
        m = JobManifest.read(oracle_manifest(tmp_path))
        assert m.task_for(2).cover == m.plan.cover() != ()
        m.plan = None
        assert m.task_for(2).cover == ()

    def test_run_produces_c5(self, tmp_path):
        path = oracle_manifest(tmp_path)
        out = str(tmp_path / "out.g6")
        store = run_manifest(path, out)
        assert store.complete
        assert canonical_form(cycle(5)) in store.forms()

    def test_rerun_is_noop_and_identical(self, tmp_path):
        path = oracle_manifest(tmp_path)
        out = str(tmp_path / "out.g6")
        run_manifest(path, out)
        first = open(out).read()
        first_meta = open(out + ".meta").read()
        run_manifest(path, out)
        assert open(out).read() == first
        assert open(out + ".meta").read() == first_meta

    def test_resume_after_interruption(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SHARD_SIZE", 1)
        path = oracle_manifest(tmp_path)
        out = str(tmp_path / "out.g6")
        full = run_manifest(path, out).forms()
        # simulate an interrupted run: drop one part file
        parts = sorted(os.listdir(out + ".parts"))
        os.remove(os.path.join(out + ".parts", parts[0]))
        resumed = run_manifest(path, out)
        assert resumed.forms() == full

    def test_rerun_recomputes_only_missing_parts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SHARD_SIZE", 1)
        path = oracle_manifest(tmp_path, 4, 6, 9)
        out = str(tmp_path / "out.g6")
        run_manifest(path, out, workers=1)
        written = [open(out + s, "rb").read() for s in ("", ".meta")]
        parts = sorted(os.listdir(out + ".parts"))
        assert len(parts) >= 3
        lost = os.path.join(out + ".parts", parts[1])
        os.remove(lost)
        with open(lost + ".tmp", "w") as fh:
            fh.write("garbage\n")  # a part write cut short before its rename
        calls = []
        run_shard = pipeline._run_shard

        def counting(args):
            calls.append(args)
            return run_shard(args)

        monkeypatch.setattr(pipeline, "_run_shard", counting)
        run_manifest(path, out, workers=1)
        assert len(calls) == 1
        assert os.path.exists(lost)
        assert [open(out + s, "rb").read() for s in ("", ".meta")] == written

    def test_run_leaves_manifest_unchanged(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SHARD_SIZE", 1)
        path = oracle_manifest(tmp_path)
        before = open(path, "rb").read()
        run_manifest(path, str(tmp_path / "out.g6"))
        assert open(path, "rb").read() == before

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("RAMSEY_WORKERS", "3")
        assert worker_count(None) == 3
        assert worker_count(2) == 2

    def test_shard_size_does_not_change_store(self, tmp_path, monkeypatch):
        path = oracle_manifest(tmp_path, 4, 6, 9)
        written, parts = set(), {}
        for size in (1, pipeline.SHARD_SIZE):
            monkeypatch.setattr(pipeline, "SHARD_SIZE", size)
            for workers in (1, 2):
                out = str(tmp_path / f"s{size}_w{workers}.g6")
                run_manifest(path, out, workers=workers)
                written.add(tuple(open(out + s, "rb").read()
                                  for s in ("", ".meta")))
                parts[size] = len(os.listdir(out + ".parts"))
        assert len(written) == 1
        # rows d = 1, 2, 3 glue 1, 2 and 1 inputs
        assert parts == {1: 4, pipeline.SHARD_SIZE: 3}

    def test_workers_two_identical(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SHARD_SIZE", 1)
        path = oracle_manifest(tmp_path)
        out1 = str(tmp_path / "a.g6")
        out2 = str(tmp_path / "b.g6")
        run_manifest(path, out1, workers=1)
        # a new output has no parts yet, so every shard runs on two workers
        run_manifest(path, out2, workers=2)
        assert open(out1).read() == open(out2).read()

    def test_parallel_failure_keeps_finished_shards(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SHARD_SIZE", 1)
        path = oracle_manifest(tmp_path, 4, 6, 9)
        inputs = JobManifest.read(path).inputs
        finished = {(degree, idx) for degree, p in inputs
                    for idx in range(max(1, len(open(p).readlines())))}
        last = inputs[-1][1]
        good = open(last).read()
        with open(last, "a") as fh:
            fh.write("A~\n")  # nonzero padding bits
        out = str(tmp_path / "out.g6")
        with pytest.raises(GraphFormatError):
            run_manifest(path, out, workers=2)
        assert len(finished) >= 3
        assert sorted(name.rsplit("_", 1)[0]
                      for name in os.listdir(out + ".parts")) == sorted(
            f"d{degree}_s{idx}" for degree, idx in finished)
        with open(last, "w") as fh:
            fh.write(good)
        run_manifest(path, out, workers=2)
        serial = tmp_path / "serial"
        serial.mkdir()
        run_manifest(oracle_manifest(serial, 4, 6, 9),
                     str(serial / "out.g6"), workers=1)
        for suffix in ("", ".meta"):
            assert open(out + suffix).read() == \
                open(str(serial / "out.g6") + suffix).read()

    def test_failed_first_shard_keeps_later_parts(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "SHARD_SIZE", 1)
        path = oracle_manifest(tmp_path, 4, 6, 9)
        inputs = JobManifest.read(path).inputs
        first = inputs[0][1]
        write_lines(first, ["A~"] + read_lines(first)[1:])  # nonzero padding
        out = str(tmp_path / "out.g6")
        with pytest.raises(GraphFormatError):
            run_manifest(path, out, workers=2)
        later = [f"d{degree}_s{idx}" for degree, p in inputs
                 for idx in range(max(1, len(read_lines(p))))][1:]
        assert len(later) == 3
        assert sorted(name.rsplit("_", 1)[0]
                      for name in os.listdir(out + ".parts")) == later

    def test_rerun_after_edited_e_max_matches_fresh_run(self, tmp_path):
        path = oracle_manifest(tmp_path, 4, 8, 12)
        out = str(tmp_path / "out.g6")
        assert len(run_manifest(path, out)) == 3
        m = JobManifest.read(path)
        m.e_max = 10
        m.write(path)
        fresh = str(tmp_path / "fresh.g6")
        run_manifest(path, fresh)
        assert len(run_manifest(path, out)) == 1
        for suffix in ("", ".meta"):
            assert open(out + suffix).read() == open(fresh + suffix).read()

    def test_edited_input_reruns_only_its_shards(self, tmp_path, monkeypatch):
        path = oracle_manifest(tmp_path, 4, 6, 9)
        out = str(tmp_path / "out.g6")
        run_manifest(path, out, workers=1)
        inputs = JobManifest.read(path).inputs
        assert len(inputs) == 3
        degree, edited = inputs[1]
        lines = open(edited).read().split()
        assert degree == 2 and len(lines) >= 2
        with open(edited, "w") as fh:
            fh.write("\n".join(lines[1:]) + "\n")
        calls = []
        run_shard = pipeline._run_shard

        def counting(args):
            calls.append(args)
            return run_shard(args)

        monkeypatch.setattr(pipeline, "_run_shard", counting)
        rerun = run_manifest(path, out, workers=1)
        assert [task.d for _, _, task, _ in calls] == [degree]
        assert calls[0][1] == lines[1:]
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        assert rerun.forms() == run_manifest(path, str(fresh / "out.g6"),
                                             workers=1).forms()

    def test_uncertified_refused(self, tmp_path):
        path = oracle_manifest(tmp_path)
        m = JobManifest.read(path)
        m.plan = None
        m.write(path)
        with pytest.raises(ManifestError):
            run_manifest(path, str(tmp_path / "x.g6"))
        run_manifest(path, str(tmp_path / "x.g6"), allow_partial=True)

    @pytest.mark.parametrize("name", ["edgebound", "forbidden"])
    def test_unknown_prune_name_rejected(self, tmp_path, name):
        path = oracle_manifest(tmp_path)
        with open(path, "a") as fh:
            fh.write(f"no_prune=automorphic,{name}\n")
        with pytest.raises(ManifestError, match=name):
            JobManifest.read(path)

    def test_missing_input(self, tmp_path):
        path = oracle_manifest(tmp_path)
        m = JobManifest.read(path)
        m.inputs = [(degree, str(tmp_path / "nope.g6")) for degree, _ in m.inputs]
        m.write(path)
        with pytest.raises(ManifestError, match="nope.g6"):
            run_manifest(path, str(tmp_path / "x.g6"))

    def test_certified_row_without_input(self, tmp_path):
        # rows d = 1, 2, 3 have positive increments; without the degree-1
        # input the run would glue 12 of the class's 15 graphs
        path = oracle_manifest(tmp_path, 4, 6, 9)
        m = JobManifest.read(path)
        m.inputs = [(degree, p) for degree, p in m.inputs if degree != 1]
        m.write(path)
        with pytest.raises(ManifestError, match=re.escape("degree(s) [1]")):
            run_manifest(path, str(tmp_path / "x.g6"))
        assert not os.path.exists(tmp_path / "x.g6")

    def test_plan_row_of_wrong_order(self, tmp_path):
        path = oracle_manifest(tmp_path, 4, 6, 9)
        text = open(path).read()
        assert "\nplan=2,3,1,2,2\n" in text
        with open(path, "w") as fh:
            fh.write(text.replace("\nplan=2,3,1,2,2\n", "\nplan=2,4,1,2,2\n"))
        with pytest.raises(ManifestError, match=re.escape("degree(s) [2]")):
            JobManifest.read(path)

    def test_repeated_plan_degree(self, tmp_path):
        # a second degree-3 row would split the degree-3 hosts between two
        # covers; glued, the store would hold 2 of the class's 3 graphs
        Bootstrap(str(tmp_path / "bs")).store(4, 8, 12)
        path = str(tmp_path / "bs" / "c4_n8_e12.g6.manifest")
        lines = read_lines(path)
        assert "plan_rows=2" in lines and "plan=3,4,2,2,3" in lines
        write_lines(path, [line.replace("plan_rows=2", "plan_rows=3")
                           for line in lines] + ["plan=3,4,2,1,2"])
        out = str(tmp_path / "x.g6")
        with pytest.raises(ManifestError, match=re.escape("degree(s) [3]")):
            run_manifest(path, out, workers=1)
        assert cli.main(["extend", "--manifest", path, "--out", out]) == 2
        assert not os.path.exists(out)

    def test_plan_leaving_a_survivor(self, tmp_path, capsys):
        # one increment too few: the degree-3 row then covers only the
        # 2-edge hosts, and the run would glue 2 of the class's 3 graphs
        Bootstrap(str(tmp_path / "bs")).store(4, 8, 12)
        path = str(tmp_path / "bs" / "c4_n8_e12.g6.manifest")
        lines = read_lines(path)
        assert "plan=3,4,2,2,3" in lines
        write_lines(path, [line.replace("plan=3,4,2,2,3", "plan=3,4,2,1,2")
                           for line in lines])
        out = str(tmp_path / "x.g6")
        assert cli.main(["extend", "--manifest", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"manifest error: {path}: plan leaves degree sequences uncovered: "
            "[n3=8 | e=12, slack=0]\n")
        assert not os.path.exists(out) and not os.path.exists(out + ".parts")

    def test_plan_without_a_published_degree(self, tmp_path, capsys):
        # C5 is a (3,3;5,<=5)-graph: a degree the plan has no row for costs
        # i^2 plus its published entry, 4 + e(3,2,2) for degree 2, and C5's
        # degree sequence survives
        path = tmp_path / "job.manifest"
        path.write_text("target_k=3\nn=5\ne_max=5\nplan_rows=0\n")
        out = str(tmp_path / "x.g6")
        assert cli.main(["extend", "--manifest", str(path), "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"manifest error: {path}: plan leaves degree sequences uncovered: "
            "[n2=5 | e=5, slack=0]\n")
        assert not os.path.exists(out) and not os.path.exists(out + ".parts")
        # above the bundled level 10 the plan is costed with propagated
        # bounds: the edgeless 3-vertex graph survives a level-11 plan
        path.write_text("target_k=12\nn=3\ne_max=0\nplan_rows=0\n")
        with pytest.raises(ManifestError, match=re.escape("[n0=3 | e=0, slack=0]")):
            JobManifest.read(str(path))

    def test_huge_edge_cap_reads_quickly(self, tmp_path):
        # the certificate's scan stops where 2e exceeds n times the largest
        # degree, so the read time does not grow with e_max
        rows = plan_closure(3, 5, 5, data.builtin_table(2)).rows
        plan = ClosurePlan(3, 5, 10 ** 8, rows)
        path = str(tmp_path / "job.manifest")
        JobManifest(target_k=3, n=5, e_max=10 ** 8, plan=plan,
                    inputs=[(d, f"A{d}.g6") for d, _ in plan.cover()]).write(path)
        start = time.perf_counter()
        assert JobManifest.read(path).plan == plan
        assert time.perf_counter() - start < 2

    def test_plan_base_read_only_through_a_ceiling(self, tmp_path):
        # a run glues every host up to a row's ceiling, so with increment 1
        # a base of 3 (above the published e(3,3,4)=2) keeps ceiling 3 and
        # the run still glues all 3 graphs of the class
        Bootstrap(str(tmp_path / "bs")).store(4, 8, 12)
        path = str(tmp_path / "bs" / "c4_n8_e12.g6.manifest")
        lines = read_lines(path)
        assert "plan=3,4,2,2,3" in lines
        write_lines(path, [line.replace("plan=3,4,2,2,3", "plan=3,4,3,1,3")
                           for line in lines])
        assert run_manifest(path, str(tmp_path / "x.g6"), workers=1).forms() == (
            GraphStore.read(str(tmp_path / "bs" / "c4_n8_e12.g6")).forms())

    def test_plan_base_above_a_published_lower_bound(self, tmp_path, capsys):
        # e(3,10,38) >= 139 is published as a lower bound only; a degree-10
        # row at increment 0 claiming 140 would certify the (3,11;49,<=237)
        # box with no input, but it costs 139 like the degrees without rows
        table = data.builtin_table()
        assert table.entry(10, 38).kind == LOWER
        rows = [PlanRow(i, 48 - i, table.bound_value(10, 48 - i), 0,
                        table.bound_value(10, 48 - i) - 1) for i in range(7, 10)]
        plan = ClosurePlan(11, 49, 237, rows + [PlanRow(10, 38, 140, 0, 139)])
        assert plan.survivors(table)
        path = str(tmp_path / "job.manifest")
        JobManifest(target_k=11, n=49, e_max=237, plan=plan).write(path)
        out = str(tmp_path / "x.g6")
        assert cli.main(["extend", "--manifest", path, "--out", out]) == 2
        assert capsys.readouterr().err == (
            f"manifest error: {path}: plan leaves degree sequences uncovered: "
            "[n7=4, n8=2, n10=43 | e=237, slack=2]\n")
        assert not os.path.exists(out) and not os.path.exists(out + ".parts")

    def test_closure_plan_checks_its_rows(self):
        low, high = PlanRow(1, 3, 2, 1, 2), PlanRow(2, 2, 1, 0, 0)
        plan = ClosurePlan(3, 5, 5, [high, low])
        assert plan.rows == (low, high)
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.rows = ()
        with pytest.raises(ValueError, match=re.escape(
                "degree(s) [2] have m != n - degree - 1")):
            ClosurePlan(3, 5, 5, [low, PlanRow(2, 3, 1, 0, 0)])
        with pytest.raises(ValueError, match=re.escape(
                "repeats row(s) of degree(s) [1]")):
            ClosurePlan(3, 5, 5, [low, high, PlanRow(1, 3, 2, 0, 1)])

    def test_input_of_wrong_order(self, tmp_path):
        # the certified (3;5,<=5) plan glues K2 at a degree-2 hub; a
        # degree-1 hub needs hosts of order 3
        k2 = write_inputs(tmp_path, "k2.g6", [Graph.from_edges(2, [(0, 1)])])
        path = str(tmp_path / "job.manifest")
        JobManifest(target_k=3, n=5, e_max=5, inputs=[(1, k2), (2, k2)],
                    plan=ClosurePlan(3, 5, 5, [PlanRow(2, 2, 1, 1, 1)])).write(path)
        out = str(tmp_path / "x.g6")
        with pytest.raises(ManifestError, match="A_ has order 2"):
            run_manifest(path, out, workers=1)
        assert not os.path.exists(out)


def _parts_by_degree(out: str) -> dict:
    parts: dict = {}
    for name in os.listdir(out + ".parts"):
        degree = int(name[1:name.index("_")])
        parts.setdefault(degree, set()).update(open(
            os.path.join(out + ".parts", name)).read().split())
    return parts


def _plant_repeat(out: str) -> str:
    """Copy the first line of the first non-empty part into another part;
    returns that line."""
    parts = [os.path.join(out + ".parts", name)
             for name in sorted(os.listdir(out + ".parts"))]
    source = next(p for p in parts if read_lines(p))
    line = read_lines(source)[0]
    target = next(p for p in parts if p != source)
    write_lines(target, sorted(read_lines(target) + [line]))
    return line


class TestMergeCheck:
    """The merge checks that the parts of a run under the canonical rule are
    disjoint; without the rule it drops repeats."""

    def test_repeat_under_canonical_rule_raises(self, tmp_path):
        path = oracle_manifest(tmp_path, 4, 6, 9)
        out = str(tmp_path / "out.g6")
        run_manifest(path, out, workers=1)
        written = [open(out + s, "rb").read() for s in ("", ".meta")]
        line = _plant_repeat(out)
        with pytest.raises(StoreError, match=re.escape(line)):
            run_manifest(path, out, workers=1)
        assert cli.main(["extend", "--manifest", path, "--out", out,
                         "--workers", "1"]) == 1
        assert [open(out + s, "rb").read() for s in ("", ".meta")] == written

    @pytest.mark.parametrize("no_prune, certified", [
        (("canonical",), True), ((), False)], ids=["rule-off", "uncertified"])
    def test_repeat_without_rule_dropped(self, tmp_path, no_prune, certified):
        path = oracle_manifest(tmp_path, 4, 6, 9)
        m = JobManifest.read(path)
        m.no_prune = no_prune
        if not certified:
            m.plan = None
        m.write(path)
        out, fresh = str(tmp_path / "out.g6"), str(tmp_path / "fresh.g6")
        run_manifest(path, out, workers=1, allow_partial=True)
        _plant_repeat(out)
        run_manifest(path, out, workers=1, allow_partial=True)
        run_manifest(path, fresh, workers=1, allow_partial=True)
        for suffix in ("", ".meta"):
            assert open(out + suffix, "rb").read() == \
                open(fresh + suffix, "rb").read()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_repeated_input(self, tmp_path, capsys, workers):
        # a repeated input= line is refused on read; a second file with the
        # same lines keys the same parts, which run once and merge twice
        Bootstrap(str(tmp_path / "bs")).store(5, 10, 20)
        path = str(tmp_path / "bs" / "c5_n10_e20.g6.manifest")
        lines = read_lines(path)
        hosts, copy = str(tmp_path / "bs" / "c4_n6_e6.g6"), str(tmp_path / "c.g6")
        assert f"input=3:{hosts}" in lines
        write_lines(copy, read_lines(hosts))
        out = str(tmp_path / "x.g6")
        for extra, code, message in (
                (hosts, 2, f"{path}: repeated line input=3:{hosts}"),
                (copy, 1, "glued twice under the canonical rule")):
            write_lines(path, lines + [f"input=3:{extra}"])
            assert cli.main(["extend", "--manifest", path, "--out", out,
                             "--workers", str(workers)]) == code
            assert message in capsys.readouterr().err
            assert not os.path.exists(out)


class TestCanonicalRule:
    """Leaves are kept only from the canonical covered hub; the rule is
    output-neutral per store, not per host."""

    def test_task_cover_from_certified_plan(self, tmp_path):
        m = JobManifest.read(oracle_manifest(tmp_path, 4, 6, 9))
        assert m.task_for(2).cover == ((1, 2), (2, 2), (3, 0))
        m.plan = None
        assert m.task_for(2).cover == ()

    def test_degree_rows_disjoint(self, tmp_path):
        path = oracle_manifest(tmp_path, 5, 9, 14)
        out = str(tmp_path / "out.g6")
        store = run_manifest(path, out, workers=1)
        parts = _parts_by_degree(out)
        assert len(parts) == 3
        assert sum(len(forms) for forms in parts.values()) == len(store)
        assert set().union(*parts.values()) == store.forms()

    @pytest.mark.parametrize("k, n, e", [(4, 7, 9), (5, 10, 20)])
    def test_inputs_above_ceilings(self, tmp_path, k, n, e):
        # each input holds its whole class, above the plan row's ceiling;
        # a host whose hub is not covered yields nothing, so no output is
        # glued twice and the store is the same
        bs = Bootstrap(str(tmp_path / "bs"))
        bs.store(k, n, e)
        m = JobManifest.read(bs.store_path(k, n, e) + ".manifest")
        inputs = []
        for degree, original in m.inputs:
            full = brute_force_graphs(n - degree - 1, k - 1)
            assert set(read_lines(original)) < set(full)
            inputs.append((degree, write_inputs(
                tmp_path, f"full{degree}.g6", full.values())))
        m.inputs = inputs
        path = str(tmp_path / "full.manifest")
        m.write(path)
        store = run_manifest(path, str(tmp_path / "out.g6"), workers=1)
        assert store.forms() == set(brute_force_graphs(n, k, e))

    def test_fewer_leaves_labelled(self, tmp_path, monkeypatch):
        labelled = []

        def counting_form(g):
            labelled.append(g)
            return canonical_form(g)

        monkeypatch.setattr(extend, "canonical_form", counting_form)
        path = oracle_manifest(tmp_path, 4, 7, 9)
        run_manifest(path, str(tmp_path / "on.g6"), workers=1)
        on = len(labelled)
        m = JobManifest.read(path)
        m.no_prune = ("canonical",)
        m.write(path)
        labelled.clear()
        run_manifest(path, str(tmp_path / "off.g6"), workers=1)
        assert on < len(labelled)
        assert open(tmp_path / "on.g6").read() == open(tmp_path / "off.g6").read()


class TestBootstrap:
    def test_small_values(self, tmp_path):
        bs = Bootstrap(str(tmp_path / "bs"))
        assert bs.value(3, 5) == 5
        assert bs.value(3, 6) == math.inf
        assert bs.value(4, 8) == 10
        assert bs.value(4, 9) == math.inf

    def test_lower_entry_is_not_a_value(self, tmp_path):
        # a LOWER entry, as derived_entry may set one, is probed from and
        # then overwritten by the exact value
        bs = Bootstrap(str(tmp_path / "bs"))
        bs.table.set(3, 5, BoundEntry(LOWER, 3, "planted"))
        assert bs.value(3, 5) == 5
        assert bs.table.entry(3, 5) == BoundEntry(EXACT, 5, "derived")

    def test_store_matches_oracle(self, tmp_path):
        bs = Bootstrap(str(tmp_path / "bs"))
        st = bs.store(4, 8, 12)
        assert st.complete
        assert st.forms() == set(brute_force_graphs(8, 4, 12))

    @pytest.mark.parametrize("n, e", [(9, 14), (10, 20)])
    def test_k5_store_matches_oracle(self, tmp_path, n, e):
        st = Bootstrap(str(tmp_path / "bs")).store(5, n, e)
        assert st.complete
        assert st.forms() == set(brute_force_graphs(n, 5, e))

    def test_every_level_uses_the_printed_plan(self, tmp_path):
        # the values Bootstrap derives equal the published ones, so each
        # level must carry the plan `ramsey3k plan` prints for that box
        root = tmp_path / "bs"
        Bootstrap(str(root)).store(5, 10, 20)
        table = data.builtin_table(10)
        manifests = sorted(root.glob("*.manifest"))
        assert len(manifests) >= 5
        for path in manifests:
            m = JobManifest.read(str(path))
            assert m.plan.rows == plan_closure(m.target_k, m.n, m.e_max,
                                               table).rows, path.name

    def test_disk_cache_reused(self, tmp_path, monkeypatch):
        root = str(tmp_path / "bs")
        bs = Bootstrap(root)
        st = bs.store(3, 5, 5)
        calls = []
        monkeypatch.setattr(pipeline, "_run_shard", calls.append)
        bs2 = Bootstrap(root)
        st2 = bs2.store(3, 5, 5)
        assert calls == []
        assert st2.forms() == st.forms()

    def test_warm_root_reglues_nothing(self, tmp_path, monkeypatch):
        # a second Bootstrap merges every level from its parts and rewrites
        # every state file with the same bytes
        root = tmp_path / "bs"
        Bootstrap(str(root)).store(4, 8, 12)
        files = sorted(p for p in root.iterdir() if p.is_file())
        assert {p.suffix for p in files} == {".g6", ".meta", ".manifest"}
        before = [p.read_bytes() for p in files]
        for p in files:
            os.utime(p, (0, 0))
        calls = []
        monkeypatch.setattr(pipeline, "_run_shard", calls.append)
        st = Bootstrap(str(root)).store(4, 8, 12)
        assert calls == []
        assert st.forms() == set(brute_force_graphs(8, 4, 12))
        assert sorted(p for p in root.iterdir() if p.is_file()) == files
        assert [p.read_bytes() for p in files] == before
        assert all(p.stat().st_mtime > 0 for p in files)

    def test_edited_store_not_trusted(self, tmp_path):
        # a store file claiming completeness is never read back: the level
        # is merged from its keyed parts and the file is rewritten
        root = str(tmp_path / "bs")
        path = Bootstrap(root).store_path(4, 8, 12)
        Bootstrap(root).store(4, 8, 12)
        written = [open(path + s, "rb").read() for s in ("", ".meta")]
        lines = read_lines(path)
        assert len(lines) == 3
        GraphStore(4, 8, 0, 12, complete=True, certificate="plan:bogus",
                   lines=lines[1:]).write(path)
        st = Bootstrap(root).store(4, 8, 12)
        assert st.forms() == set(brute_force_graphs(8, 4, 12))
        assert [open(path + s, "rb").read() for s in ("", ".meta")] == written

    def test_level_above_the_bundled_table(self, tmp_path):
        # the (3,12;8,<=4) manifest is costed with bounds propagated to level 11
        st = Bootstrap(str(tmp_path)).store(12, 8, 4)
        assert st.counts() == {0: 1, 1: 1, 2: 2, 3: 4, 4: 9}
        assert st.forms() == set(brute_force_graphs(8, 12, 4))

    def test_workers_do_not_change_store(self, tmp_path, monkeypatch):
        written = []
        for workers in ("1", "2"):
            monkeypatch.setenv("RAMSEY_WORKERS", workers)
            bs = Bootstrap(str(tmp_path / f"w{workers}"))
            bs.store(4, 6, 9)
            path = bs.store_path(4, 6, 9)
            assert len(JobManifest.read(path + ".manifest").inputs) >= 2
            written.append([open(path + s).read() for s in ("", ".meta")])
        assert written[0] == written[1]

    def test_restricted_input_gets_own_file(self, tmp_path):
        bs = Bootstrap(str(tmp_path / "bs"))
        bs.store(3, 4, 6)
        # (4;7,<=9) glues onto (3;4,<=3), served from the larger store
        st = bs.store(4, 7, 9)
        assert os.path.exists(bs.store_path(3, 4, 3))
        assert st.forms() == set(brute_force_graphs(7, 4, 9))

    def test_stale_parts_not_trusted(self, tmp_path):
        bs = Bootstrap(str(tmp_path / "bs"))
        path = bs.store_path(4, 8, 12)
        bogus = canonical_form(Graph.empty(8))
        os.makedirs(path + ".parts")
        for degree in range(4):
            with open(os.path.join(path + ".parts", f"d{degree}_s0.g6"), "w") as fh:
                fh.write(bogus + "\n")
        st = bs.store(4, 8, 12)
        assert st.forms() == set(brute_force_graphs(8, 4, 12))
        assert bogus not in open(path).read().split()

    def test_second_bootstrap_resumes_from_parts(self, tmp_path, monkeypatch):
        root = str(tmp_path / "bs")
        path = Bootstrap(root).store_path(4, 8, 12)
        Bootstrap(root).store(4, 8, 12)
        written = [open(path + s, "rb").read() for s in ("", ".meta")]
        parts = path + ".parts"
        current = sorted(os.listdir(parts))
        stale = os.path.join(parts, current[0].rsplit("_", 1)[0] + "_0.g6")
        for junk in (stale, os.path.join(parts, current[0]) + ".tmp"):
            with open(junk, "w") as fh:
                fh.write(canonical_form(Graph.empty(8)) + "\n")
        os.remove(path)
        os.remove(path + ".meta")
        calls = []
        monkeypatch.setattr(pipeline, "_run_shard", calls.append)
        Bootstrap(root).store(4, 8, 12)
        assert calls == []
        assert [open(path + s, "rb").read() for s in ("", ".meta")] == written
        m = JobManifest.read(path + ".manifest")
        keyed = sorted(os.path.basename(pipeline._part_path(
            parts, m.task_for(degree), 0, open(p).read().split()))
            for degree, p in m.inputs)
        assert sorted(os.listdir(parts)) == keyed == current

    def test_digests_on_disk_are_pinned(self, tmp_path):
        # the part keys and the sidecar's hashes as every earlier root has
        # them: if a digest changed, an existing root would silently re-glue
        root = tmp_path / "bs"
        Bootstrap(str(root)).store(4, 8, 12)
        parts = sorted((d.name, name) for d in root.glob("*.parts")
                       for name in os.listdir(d))
        assert parts == [
            ("c2_n1_e0.g6.parts", "d0_s0_f8013194aab05654.g6"),
            ("c2_n2_e1.g6.parts", "d1_s0_a39f90c7a8759752.g6"),
            ("c3_n4_e2.g6.parts", "d1_s0_c78207c4abe089b0.g6"),
            ("c3_n4_e3.g6.parts", "d1_s0_cbb22ed0812f16ca.g6"),
            ("c3_n5_e5.g6.parts", "d2_s0_ad8e7e92a083525e.g6"),
            ("c4_n8_e12.g6.parts", "d3_s0_1bfc6fae593227d3.g6"),
        ]
        meta = read_lines(str(root / "c4_n8_e12.g6.meta"))
        assert "hash=32c1565c77074421" in meta
        assert "certificate=plan:7fbadfa691d41b4d" in meta
