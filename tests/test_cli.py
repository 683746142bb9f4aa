import itertools
import os
import subprocess
import sys
import time

import pytest

import ramsey3k
from ramsey3k import cli
from ramsey3k.cli import main
from ramsey3k.canon import canonical_form
from ramsey3k.degseq import INFINITE, ClosurePlan, EdgeBoundTable, PlanRow
from ramsey3k.graphs import Graph, encode_graph6
from ramsey3k.pipeline import JobManifest, ManifestError
from ramsey3k.store import GraphStore

from conftest import cycle, naive_mtf_set, path as path_graph


def test_etable_stdout(capsys):
    assert main(["etable", "--k", "3", "--n-from", "3", "--n-to", "6"]) == 0
    out, err = capsys.readouterr()
    table = EdgeBoundTable.from_csv(out)
    assert table.bound_value(3, 5) == 5
    assert table.entry(3, 6).kind == INFINITE
    assert err == "# first empty order: 6\n"
    # rows that stop below the boundary do not name it
    assert main(["etable", "--k", "3", "--n-from", "3", "--n-to", "5"]) == 0
    assert capsys.readouterr().err == ""


def test_etable_propagates(tmp_path, capsys):
    out = str(tmp_path / "t11.csv")
    assert main(["etable", "--k", "11", "--n-from", "32", "--n-to", "51",
                 "--out", out]) == 0
    table = EdgeBoundTable.from_csv(open(out).read())
    assert table.bound_value(11, 46) == 195
    assert table.entry(11, 50).kind == INFINITE


def test_etable_seed_file(tmp_path, capsys):
    seed = str(tmp_path / "seed.csv")
    with open(seed, "w") as fh:
        fh.write("k,n,kind,value,provenance\n10,39,lower,155,custom\n")
    assert main(["etable", "--k", "10", "--n-from", "39", "--n-to", "39",
                 "--out", str(tmp_path / "o.csv"), "--seed", seed]) == 0
    table = EdgeBoundTable.from_csv(open(str(tmp_path / "o.csv")).read())
    assert table.bound_value(10, 39) == 155


def test_etable_seed_above_the_level_keeps_it_propagated(tmp_path, capsys):
    argv = ["etable", "--k", "11", "--n-from", "44", "--n-to", "51"]
    assert main(argv) == 0
    seedless = capsys.readouterr()
    assert len(seedless.out.splitlines()) == 9
    assert seedless.err == "# first empty order: 50\n"
    seed = tmp_path / "seed.csv"
    seed.write_text("k,n,kind,value,provenance\n12,5,exact,0,custom\n")
    assert main(argv + ["--seed", str(seed)]) == 0
    assert capsys.readouterr() == seedless


def test_etable_derives_only_the_rows_it_prints():
    # both rows are closed forms, so no level below 66 is derived out to
    # its boundary, and the rows do not reach level 66's own
    src = os.path.dirname(os.path.dirname(ramsey3k.__file__))
    result = subprocess.run(
        [sys.executable, "-m", "ramsey3k.cli", "etable", "--k", "66",
         "--n-from", "60", "--n-to", "61"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[1:] == [
        "66,60,exact,0,closed form", "66,61,exact,0,closed form"]
    assert "# first empty order" not in result.stderr


@pytest.mark.parametrize("text, reason", [
    ("k,n,kind,value,provenance\n3,6,exact,7,custom\n", "at or above"),
    ("k,n,value\n", "must start with"),
    ("k,n,kind,value,provenance\n3,x,exact,7,custom\n", "invalid literal"),
], ids=["finite-at-boundary", "bad-header", "not-an-integer"])
def test_etable_bad_seed_usage_error(tmp_path, capsys, text, reason):
    seed = tmp_path / "t.csv"
    seed.write_text(text)
    assert main(["etable", "--k", "3", "--n-from", "4", "--n-to", "8",
                 "--seed", str(seed)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and reason in captured.err


def test_degseq_listing(capsys):
    assert main(["degseq", "--k", "10", "--n", "42", "--e", "189",
                 "--dmin", "7", "--dmax", "9"]) == 0
    out = capsys.readouterr().out
    assert "n9=42" in out


def test_degseq_empty_graph(capsys):
    # the vertexless graph is the one solution of the n = 0 system
    assert main(["degseq", "--k", "3", "--n", "0", "--e", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "[empty | e=0, slack=0]\n"
    assert captured.err == "# 1 solutions\n"


def test_plan_certifies(tmp_path, capsys):
    out = str(tmp_path / "plan.csv")
    assert main(["plan", "--k", "8", "--n", "25", "--e", "65",
                 "--out", out]) == 0
    text = open(out).read()
    assert text.startswith("degree,m,base,increment,ceiling")


def test_plan_and_degseq_cost_with_the_readers_table(tmp_path, capsys):
    # plan and degseq cost a class-K box with level K - 1, as the manifest
    # reader does: the printed plan is one the reader accepts.  Level 65 is
    # derived on demand, so (66;30,<=0) is costed like any other box
    out = tmp_path / "plan.csv"
    path = str(tmp_path / "job.manifest")
    for k, n, e, solutions in [(12, 8, 4, 17), (66, 30, 0, 1)]:
        argv = ["--k", str(k), "--n", str(n), "--e", str(e)]
        assert main(["plan"] + argv + ["--out", str(out)]) == 0
        rows = [PlanRow(*map(int, line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        plan = ClosurePlan(k, n, e, rows)
        JobManifest(target_k=k, n=n, e_max=e, plan=plan,
                    inputs=[(d, f"A{d}.g6") for d, _ in plan.cover()]).write(path)
        assert JobManifest.read(path).plan == plan
        assert main(["degseq"] + argv) == 0
        assert capsys.readouterr().err.endswith(f"# {solutions} solutions\n")
    # the edgeless graph's one sequence is covered by the degree-0 row
    assert plan.cover() == ((0, 0),)


@pytest.mark.parametrize("command", ["plan", "degseq"])
def test_user_table_leaves_the_bundled_table_alone(tmp_path, capsys, command):
    # a --table is merged into a fresh table: a later run without it prints
    # what a fresh interpreter prints
    argv = [command, "--k", "12", "--n", "8", "--e", "4"]
    fresh, _ = _numpy_after(argv)
    table = tmp_path / "raise.csv"
    table.write_text("k,n,kind,value,provenance\n11,7,lower,1,custom\n")
    assert main(argv + ["--table", str(table)]) == 0
    raised = capsys.readouterr().out
    assert main(argv) == 0
    again = capsys.readouterr().out
    assert raised != again
    assert again.splitlines() + ["0 False"] == fresh.splitlines()


def test_plan_without_certified_plan_exits_1(monkeypatch, capsys):
    def no_plan(*args):
        raise RuntimeError("no certified plan within 10000 rounds")

    monkeypatch.setattr(cli, "plan_closure", no_plan)
    assert main(["plan", "--k", "8", "--n", "25", "--e", "65"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("ramsey3k: error: "
                            "no certified plan within 10000 rounds\n")


def test_oracle_closure_count_verify(tmp_path, capsys):
    mtf = str(tmp_path / "mtf.g6")
    with open(mtf, "w") as fh:
        for g in naive_mtf_set(8, 4).values():
            fh.write(encode_graph6(g) + "\n")
    closed = str(tmp_path / "closed.g6")
    assert main(["closure", "--mtf", mtf, "--k", "4", "--out", closed]) == 0

    oracle_out = str(tmp_path / "oracle.g6")
    assert main(["oracle", "--n", "8", "--k", "4", "--out", oracle_out]) == 0
    assert open(closed).read() == open(oracle_out).read()

    assert main(["count", "--store", oracle_out]) == 0
    table = capsys.readouterr().out
    assert "10" in table and "12" in table

    assert main(["verify", "--store", oracle_out, "--k", "4",
                 "--minimality"]) == 1  # only the 10-edge member is minimal
    ten = str(tmp_path / "min.g6")
    GraphStore.read(oracle_out).restricted(10).write(ten)
    assert main(["verify", "--store", ten, "--k", "4", "--minimality",
                 "--gv", _gv_ref(tmp_path),
                 "--add-edges", "1", oracle_out]) == 0


def _gv_ref(tmp_path):
    from ramsey3k.oracle import brute_force_graphs
    ref = GraphStore(3, 5, lines=brute_force_graphs(5, 3, None))
    path = str(tmp_path / "gvref.g6")
    ref.write(path)
    return path


def test_oracle_capacity_exit_code(tmp_path):
    assert main(["oracle", "--n", "20", "--k", "5",
                 "--out", str(tmp_path / "x.g6")]) == 3


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--n", "not-a-number", "--k", "3", "--out", "x"])
    assert exc.value.code == 2


def test_unknown_prune_rule(tmp_path):
    manifest = tmp_path / "m.manifest"
    manifest.write_text("target_k=3\nn=5\ne_max=5\nplan_rows=0\nno_prune=bogus\n")
    assert main(["extend", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o.g6")]) == 2


def test_extend_runs_manifest(tmp_path):
    from test_pipeline import oracle_manifest
    path = oracle_manifest(tmp_path)
    out = str(tmp_path / "out.g6")
    assert main(["extend", "--manifest", path, "--out", out,
                 "--workers", "1"]) == 0
    store = GraphStore.read(out)
    assert canonical_form(cycle(5)) in store.forms()


def _default_and_rule_off_stores(tmp_path, rule, box):
    from test_pipeline import oracle_manifest
    stores = []
    for name, no_prune in [("default", ""), ("off", rule)]:
        run_dir = tmp_path / name
        run_dir.mkdir()
        manifest = oracle_manifest(run_dir, *box)
        text = open(manifest).read()
        assert "\nno_prune=\n" in text
        with open(manifest, "w") as fh:
            fh.write(text.replace("\nno_prune=\n", f"\nno_prune={no_prune}\n"))
        before = open(manifest, "rb").read()
        out = str(run_dir / "out.g6")
        assert main(["extend", "--manifest", manifest,
                     "--out", out, "--workers", "1"]) == 0
        assert open(manifest, "rb").read() == before
        stores.append(open(out, "rb").read())
    return stores


def test_extend_no_prune_automorphic_same_store(tmp_path):
    stores = _default_and_rule_off_stores(tmp_path, "automorphic", (4, 8, 12))
    assert stores[0] == stores[1]


def test_extend_no_prune_canonical_same_store(tmp_path):
    # three degree rows, each of which emits graphs that other rows emit too
    # when the rule is off
    stores = _default_and_rule_off_stores(tmp_path, "canonical", (5, 9, 14))
    assert stores[0] == stores[1]


BOX = "target_k=3\nn=5\ne_max=5\nplan_rows=0\n"   # an empty certified plan
UNCERTIFIED = "target_k=3\nn=5\ne_max=5\n"


@pytest.mark.parametrize("text, key", [
    ("n=5\ne_max=5\nplan_rows=0\n", "target_k"),
    ("target_k=x\nn=5\ne_max=5\n", "target_k"),
    (BOX + "input=2\n", "input"),
    (BOX + "plan=1,2,3\n", "plan"),
    (BOX + "done=2:0\n", "done"),
    (BOX + "regular=1\n", "regular"),
    (BOX + "shard_size=500\n", "shard_size"),
    (UNCERTIFIED, "certificate"),
    (BOX + "certified=1\n", "unknown key 'certified'"),
    (BOX + "d_min=0\n", "d_min"),
    (BOX + "delta_max=\n", "delta_max"),
    (BOX + "input=-1:f.g6\n", "hub degree -1 outside 0..2"),
    (BOX + "input=7:f.g6\n", "hub degree 7 outside 0..2"),
    (BOX + "e_max=-1\n", "edge cap"),
    (UNCERTIFIED + "certified=1\n", "unknown key 'certified'"),
    (UNCERTIFIED + "plan=2,2,1,0,0\n", "plan= line(s) without plan_rows="),
    (UNCERTIFIED + "plan_rows=1\n", "plan_rows=1 but 0 plan line(s)"),
    (BOX + "plan=2,2,1,0,0\n", "plan_rows=0 but 1 plan line(s)"),
    (UNCERTIFIED + "plan_rows=2\nplan=2,2,1,0,0\n",
     "plan_rows=2 but 1 plan line(s)"),
    (UNCERTIFIED + "plan_rows=x\n", "plan_rows"),
    (UNCERTIFIED + "plan_rows=2\nplan=2,2,1,0,0\nplan=2,2,1,0,0\n",
     "repeats row(s) of degree(s) [2]"),
    (BOX + "no_prune canonical\n", "line 'no_prune canonical' is not key=value"),
    (BOX + "garbage\n", "line 'garbage' is not key=value"),
    # the empty graph is a (3,3;0)-member, which no plan covers
    ("target_k=3\nn=0\ne_max=0\nplan_rows=0\n",
     "uncovered: [empty | e=0, slack=0]"),
    # level 65 is derived on demand, and no graph has more than 64 vertices
    ("target_k=66\nn=30\ne_max=0\nplan_rows=0\n",
     "uncovered: [n0=30 | e=0, slack=0]"),
    ("target_k=22\nn=70\ne_max=0\nplan_rows=0\n",
     "order n=70 above the graph order cap 64"),
], ids=["missing-key", "not-an-integer", "malformed-input", "malformed-plan",
        "unknown-key-done", "unknown-key-regular", "unknown-key-shard-size",
        "uncertified", "unknown-key-certified", "unknown-key-d-min",
        "unknown-key-delta-max", "input-degree-negative",
        "input-degree-above-k", "negative-e-max", "certified-no-plan",
        "certified-plan-no-count", "count-above-rows", "count-below-rows",
        "uncertified-count-mismatch", "malformed-count", "plan-degree-repeated",
        "line-without-equals", "garbage-line", "empty-graph-uncovered",
        "level-above-64", "order-above-closed-forms"])
def test_bad_manifest_usage_error(tmp_path, capsys, text, key):
    manifest = tmp_path / "m.manifest"
    manifest.write_text(text)
    assert main(["extend", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o.g6")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("manifest error:") and key in err
    assert "Traceback" not in err


@pytest.mark.parametrize("box, survivor", [
    ("target_k=12\nn=40\ne_max=100", "[n5=40 | e=100, slack=0]"),
    ("target_k=10\nn=35\ne_max=120", "[n5=3, n6=31, n7=1 | e=104, slack=0]"),
    ("target_k=40\nn=30\ne_max=100", "[n0=30 | e=0, slack=0]"),
], ids=["level-11", "level-9-many-survivors", "level-39"])
def test_empty_plan_names_its_first_survivor(tmp_path, capsys, box, survivor):
    # a level above the bundled 10 is costed with propagated bounds, and the
    # refusal stops at the search's first survivor
    manifest, out = tmp_path / "m.manifest", tmp_path / "o.g6"
    manifest.write_text(box + "\nplan_rows=0\n")
    start = time.perf_counter()
    assert main(["extend", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == (
        f"manifest error: {manifest}: plan leaves degree sequences uncovered: "
        f"{survivor}\n")
    assert not out.exists() and not (tmp_path / "o.g6.parts").exists()


def _store_with_bad_line(tmp_path):
    path = str(tmp_path / "s.g6")
    with open(path, "w") as fh:
        fh.write(encode_graph6(cycle(5)) + "\nnot graph6\n")
    return path


def _c5_store(tmp_path):
    path = str(tmp_path / "s.g6")
    GraphStore(3, 5, lines=[canonical_form(cycle(5))]).write(path)
    return path


def _store_with_wrong_total(tmp_path):
    path = _c5_store(tmp_path)
    meta = open(path + ".meta").read().replace("total=1", "total=2")
    with open(path + ".meta", "w") as fh:
        fh.write(meta)
    return path


def _store_with_malformed_meta(tmp_path):
    path = _store_with_wrong_total(tmp_path)
    meta = open(path + ".meta").read().replace("total=2", "total=x")
    with open(path + ".meta", "w") as fh:
        fh.write(meta)
    return path


def _store_with_meta_line_without_equals(tmp_path):
    path = _c5_store(tmp_path)
    with open(path + ".meta", "a") as fh:
        fh.write("complete 1\n")
    return path


def _oracle_manifest(tmp_path):
    from test_pipeline import oracle_manifest
    return oracle_manifest(tmp_path)


def _c5_store_and_k2(tmp_path):
    """The C5 store, beside a K2 store k2.g6."""
    GraphStore(2, 2, lines=[canonical_form(Graph.from_edges(2, [(0, 1)]))]
               ).write(str(tmp_path / "k2.g6"))
    return _c5_store(tmp_path)


def _mtf_mixed_orders(tmp_path):
    path = str(tmp_path / "mtf.g6")
    with open(path, "w") as fh:
        fh.write(encode_graph6(cycle(5)) + "\n"
                 + encode_graph6(Graph.from_edges(2, [(0, 1)])) + "\n")
    return path


def _mtf_with_triangle(tmp_path):
    path = str(tmp_path / "mtf.g6")
    with open(path, "w") as fh:
        fh.write(encode_graph6(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
                 + "\n")
    return path


def _mtf_non_maximal(tmp_path):
    path = str(tmp_path / "mtf.g6")
    with open(path, "w") as fh:
        fh.write(encode_graph6(path_graph(4)) + "\n")
    return path


LEVEL_65 = ["--k", "66", "--n", "30", "--e", "0"]  # level 65 derived on demand


@pytest.mark.parametrize("make, argv, code", [
    (_store_with_bad_line, ["verify", "--k", "3", "--store"], 2),
    (_store_with_wrong_total, ["verify", "--k", "3", "--store"], 1),
    (_mtf_with_triangle, ["closure", "--k", "3", "--out", "o.g6", "--mtf"], 1),
    (_mtf_mixed_orders, ["closure", "--k", "3", "--out", "o.g6", "--mtf"], 2),
    (_store_with_bad_line, ["count", "--store"], 2),
    (_store_with_malformed_meta, ["count", "--store"], 1),
    (_store_with_meta_line_without_equals, ["count", "--store"], 1),
    (None, ["plan"] + LEVEL_65, 0),
    (None, ["degseq"] + LEVEL_65, 0),
    (None, ["degseq", "--k", "5", "--n", "10", "--e", "20", "--dmax", "9"], 2),
    (None, ["oracle", "--n", "5", "--k", "1", "--out", "o.g6"], 2),
    (None, ["oracle", "--n", "-2", "--k", "3", "--out", "o.g6"], 2),
    (_oracle_manifest,
     ["RAMSEY_WORKERS=abc", "extend", "--out", "o.g6", "--manifest"], 2),
    (_oracle_manifest,
     ["RAMSEY_WORKERS=0", "extend", "--out", "o.g6", "--manifest"], 2),
    (_oracle_manifest,
     ["RAMSEY_WORKERS=-2", "extend", "--out", "o.g6", "--manifest"], 2),
    (_oracle_manifest,
     ["extend", "--workers", "0", "--out", "o.g6", "--manifest"], 2),
    (_oracle_manifest,
     ["extend", "--workers", "-2", "--out", "o.g6", "--manifest"], 2),
    (_c5_store, ["verify", "--k", "0", "--minimality", "--store"], 2),
    # _c5_store writes s.g6 in the working directory: the reference store
    (_c5_store, ["verify", "--k", "3", "--add-edges", "abc", "s.g6",
                 "--store"], 2),
    (_c5_store, ["verify", "--k", "3", "--add-edges", "0", "s.g6",
                 "--store"], 2),
    (_c5_store, ["verify", "--k", "3", "--add-edges", "-1", "s.g6",
                 "--store"], 2),
    # a G_v of a (3,3)-graph on 5 vertices has 2..4 vertices
    (_c5_store, ["verify", "--k", "3", "--gv", "s.g6", "--store"], 2),
    (_c5_store_and_k2, ["verify", "--k", "3", "--add-edges", "1", "k2.g6",
                        "--store"], 2),
    (_c5_store, ["closure", "--k", "0", "--out", "o.g6", "--mtf"], 2),
    (_c5_store, ["closure", "--k", "3", "--e-max", "-1", "--out", "o.g6",
                 "--mtf"], 2),
    (_mtf_non_maximal, ["closure", "--k", "3", "--out", "o.g6", "--mtf"], 1),
    (None, ["etable", "--k", "0", "--n-from", "0", "--n-to", "3"], 2),
    (None, ["plan", "--k", "0", "--n", "5", "--e", "5"], 2),
    (None, ["degseq", "--k", "0", "--n", "5", "--e", "5"], 2),
    (None, ["oracle", "--n", "5", "--k", "3", "--e-max", "-1",
            "--out", "o.g6"], 2),
    (None, ["plan", "--k", "5", "--n", "-1", "--e", "3"], 2),
    (None, ["plan", "--k", "5", "--n", "8", "--e", "-3"], 2),
    (None, ["degseq", "--k", "5", "--n", "-1", "--e", "3"], 2),
    (None, ["degseq", "--k", "5", "--n", "8", "--e", "-3"], 2),
    (None, ["degseq", "--k", "5", "--n", "10", "--e", "20", "--dmin", "-2"], 2),
    (None, ["etable", "--k", "5", "--n-from", "9", "--n-to", "3"], 2),
    # the empty graph solves the n = 0 system, and no input row covers it
    (None, ["plan", "--k", "3", "--n", "0", "--e", "0"], 1),
    (None, ["degseq", "--k", "5", "--n", "10", "--e", "20", "--dmin", "3",
            "--dmax", "2"], 2),
], ids=["verify-bad-line", "verify-total-mismatch", "closure-triangle",
        "closure-mixed-orders",
        "count-bad-line", "count-malformed-meta", "count-meta-line-without-equals",
        "plan-table-gap",
        "degseq-table-gap", "degseq-dmax-above-window", "oracle-k-below-2",
        "oracle-negative-n", "workers-env-not-an-integer", "workers-env-0",
        "workers-env-negative", "workers-0", "workers-negative", "verify-k-0",
        "verify-add-edges-not-an-integer", "verify-add-edges-0",
        "verify-add-edges-negative", "verify-gv-ref-order",
        "verify-add-edges-ref-order", "closure-k-0", "closure-negative-e-max",
        "closure-non-maximal",
        "etable-k-0", "plan-k-0", "degseq-k-0", "oracle-negative-e-max",
        "plan-negative-n", "plan-negative-e", "degseq-negative-n",
        "degseq-negative-e", "degseq-dmin-negative", "etable-reversed-range",
        "plan-empty-graph", "degseq-reversed-range"])
def test_typed_input_errors(tmp_path, capsys, monkeypatch, make, argv, code):
    # leading NAME=VALUE items are environment settings, as in a shell
    env = list(itertools.takewhile(lambda item: "=" in item, argv))
    for item in env:
        monkeypatch.setenv(*item.split("=", 1))
    monkeypatch.chdir(tmp_path)
    assert main(argv[len(env):] + ([make(tmp_path)] if make else [])) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not (tmp_path / "o.g6").exists()
    # errors the command reports itself
    if code and make in (None, _oracle_manifest, _c5_store, _c5_store_and_k2,
                _mtf_mixed_orders):
        assert err.startswith("ramsey3k: error:")
    if make is _mtf_non_maximal:
        assert err.startswith("verification failed: addable edge")


def test_verify_checks_members_against_k(tmp_path, capsys):
    # no sidecar, so only --k can say that a triangle is not a member
    path = tmp_path / "triangle.g6"
    path.write_text("Bw\n")
    assert main(["verify", "--k", "3", "--store", str(path)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "triangle" in err
    # no sidecar, so the first member's order sets the box
    mixed = tmp_path / "mixed.g6"
    mixed.write_text("Dhc\nA_\n")  # C5, then K2
    assert main(["verify", "--k", "3", "--store", str(mixed)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "outside box" in err
    c5 = _c5_store(tmp_path)
    assert main(["verify", "--k", "3", "--store", c5]) == 0
    capsys.readouterr()
    assert main(["verify", "--k", "4", "--store", c5]) == 1
    assert capsys.readouterr().err == (
        f"verification failed: {c5} holds k=3 members, not --k 4\n")


def test_closure_of_no_graphs_usage_error(tmp_path, capsys):
    mtf = tmp_path / "empty.g6"
    mtf.write_text("")
    out = tmp_path / "c.g6"
    assert main(["closure", "--mtf", str(mtf), "--k", "3",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("ramsey3k: error:")
    assert not out.exists() and not (tmp_path / "c.g6.meta").exists()


def _numpy_after(argv):
    """The stdout of ``main(argv)`` in a fresh interpreter, ending in the
    line "<exit code> <numpy imported>", and its stderr."""
    code = ("import sys\n"
            "from ramsey3k.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, 'numpy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(ramsey3k.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    return result.stdout, result.stderr


def _verify_argv(tmp_path):
    c5 = _c5_store(tmp_path)
    ref = str(tmp_path / "k2.g6")
    GraphStore(2, 2, lines=[canonical_form(Graph.from_edges(2, [(0, 1)]))]
               ).write(ref)
    return ["verify", "--k", "3", "--store", c5, "--minimality",
            "--gv", ref, "--add-edges", "1", c5]


def _extend_argv(tmp_path):
    # (3,4;8,<=12) glues rows of degree 2 and up: subset table, pair rows
    from test_pipeline import oracle_manifest
    manifest = oracle_manifest(tmp_path, 4, 8, 12)
    assert max(d for d, _ in JobManifest.read(manifest).plan.cover()) >= 2
    return ["extend", "--manifest", manifest, "--out",
            str(tmp_path / "o.g6"), "--workers", "1"]


def _closure_argv(tmp_path):
    mtf = str(tmp_path / "mtf.g6")
    with open(mtf, "w") as fh:
        for g in naive_mtf_set(8, 4).values():
            fh.write(encode_graph6(g) + "\n")
    return ["closure", "--mtf", mtf, "--k", "4", "--out",
            str(tmp_path / "o.g6")]


@pytest.mark.parametrize("argv", [
    lambda _: ["etable", "--k", "12", "--n-from", "50", "--n-to", "59"],
    lambda _: ["plan", "--k", "7", "--n", "16", "--e", "23"],
    lambda _: ["plan", "--k", "12", "--n", "8", "--e", "4"],
    lambda _: ["degseq", "--k", "10", "--n", "42", "--e", "189", "--dmin",
               "7", "--dmax", "9"],
    _extend_argv,
    _closure_argv,
    lambda tmp_path: ["oracle", "--n", "8", "--k", "4", "--out",
                      str(tmp_path / "o.g6")],
    _verify_argv,
    lambda tmp_path: ["count", "--store", _c5_store(tmp_path)],
], ids=["etable", "plan", "plan-level-11", "degseq", "extend", "closure",
        "oracle", "verify", "count"])
def test_commands_never_load_numpy(tmp_path, argv):
    # the package is pure Python: no command loads numpy, gluing included;
    # etable --k 12 propagates levels 11 and 12 through the solver
    out, err = _numpy_after(argv(tmp_path))
    assert out.splitlines()[-1:] == ["0 False"], out + err
