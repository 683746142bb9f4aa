import pytest

from ramsey3k.cli import main
from ramsey3k.canon import canonical_form
from ramsey3k.degseq import EdgeBoundTable
from ramsey3k.graphs import Graph, encode_graph6
from ramsey3k.oracle import naive_mtf_set
from ramsey3k.store import GraphStore

from conftest import cycle


def test_etable_stdout(capsys):
    assert main(["etable", "--k", "3", "--n-from", "3", "--n-to", "6"]) == 0
    out = capsys.readouterr().out
    table = EdgeBoundTable.from_csv(out)
    assert table.bound_value(3, 5) == 5
    assert table.is_infinite(3, 6)


def test_etable_propagates(tmp_path, capsys):
    out = str(tmp_path / "t11.csv")
    assert main(["etable", "--k", "11", "--n-from", "32", "--n-to", "51",
                 "--out", out]) == 0
    table = EdgeBoundTable.from_csv(open(out).read())
    assert table.bound_value(11, 46) == 195
    assert table.is_infinite(11, 50)


def test_etable_seed_file(tmp_path, capsys):
    seed = str(tmp_path / "seed.csv")
    with open(seed, "w") as fh:
        fh.write("k,n,kind,value,provenance\n10,39,lower,155,custom\n")
    assert main(["etable", "--k", "10", "--n-from", "39", "--n-to", "39",
                 "--out", str(tmp_path / "o.csv"), "--seed", seed]) == 0
    table = EdgeBoundTable.from_csv(open(str(tmp_path / "o.csv")).read())
    assert table.bound_value(10, 39) == 155


def test_degseq_listing(capsys):
    assert main(["degseq", "--k", "10", "--n", "42", "--e", "189",
                 "--dmin", "7", "--dmax", "9"]) == 0
    out = capsys.readouterr().out
    assert "n9=42" in out


def test_plan_certifies(tmp_path, capsys):
    out = str(tmp_path / "plan.csv")
    assert main(["plan", "--k", "8", "--n", "25", "--e", "65",
                 "--out", out]) == 0
    text = open(out).read()
    assert text.startswith("degree,m,base,increment,ceiling")


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
    st = GraphStore.read(oracle_out)
    keep = GraphStore(4, 8, e_max=10)
    for f, g in st.items():
        if g.edge_count() == 10:
            keep.add(g, f)
    keep.write(ten)
    assert main(["verify", "--store", ten, "--k", "4", "--minimality",
                 "--gv", _gv_ref(tmp_path),
                 "--add-edges", "1", oracle_out]) == 0


def _gv_ref(tmp_path):
    from ramsey3k.oracle import brute_force_graphs
    ref = GraphStore(3, 5)
    for f, g in brute_force_graphs(5, 3, None).items():
        ref.add(g, f)
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
    manifest.write_text("target_k=3\nn=5\ne_max=5\ncertified=1\n")
    assert main(["extend", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o.g6"),
                 "--no-prune", "bogus"]) == 2


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
    for name, extra in [("default", []), ("off", ["--no-prune", rule])]:
        run_dir = tmp_path / name
        run_dir.mkdir()
        out = str(run_dir / "out.g6")
        assert main(["extend", "--manifest", oracle_manifest(run_dir, *box),
                     "--out", out, "--workers", "1"] + extra) == 0
        stores.append(open(out, "rb").read())
    return stores


def test_extend_no_prune_automorphic_same_store(tmp_path):
    stores = _default_and_rule_off_stores(tmp_path, "automorphic", (4, 8, 12))
    assert stores[0] == stores[1]


def test_extend_no_prune_canonical_same_store(tmp_path):
    # five degree rows, each of which emits graphs that other rows emit too
    # when the rule is off
    stores = _default_and_rule_off_stores(tmp_path, "canonical", (5, 9, 14))
    assert stores[0] == stores[1]


BOX = "target_k=3\nn=5\ne_max=5\ncertified=1\n"


@pytest.mark.parametrize("text, key", [
    ("n=5\ne_max=5\ncertified=1\n", "target_k"),
    ("target_k=x\nn=5\ne_max=5\n", "target_k"),
    (BOX + "input=2\n", "input"),
    (BOX + "plan=1,2,3\n", "plan"),
    (BOX + "done=2:0\n", "done"),
    (BOX + "regular=1\n", "regular"),
    (BOX + "shard_size=-1\n", "shard_size"),
    ("target_k=3\nn=5\ne_max=5\ncertified=0\n", "certificate"),
    ("target_k=4\nn=5\ne_max=5\nd_min=5\ncertified=1\n", "d_min"),
    (BOX + "delta_max=3\n", "delta_max"),
    (BOX + "d_min=2\ndelta_max=1\n", "d_min <= delta_max"),
], ids=["missing-key", "not-an-integer", "malformed-input", "malformed-plan",
        "unknown-key-done", "unknown-key-regular", "nonpositive-shard-size",
        "uncertified", "d-min-above-window", "delta-max-above-window",
        "d-min-above-delta-max"])
def test_bad_manifest_usage_error(tmp_path, capsys, text, key):
    manifest = tmp_path / "m.manifest"
    manifest.write_text(text)
    assert main(["extend", "--manifest", str(manifest),
                 "--out", str(tmp_path / "o.g6")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("manifest error:") and key in err
    assert "Traceback" not in err


def _store_with_bad_line(tmp_path):
    path = str(tmp_path / "s.g6")
    with open(path, "w") as fh:
        fh.write(encode_graph6(cycle(5)) + "\nnot graph6\n")
    return path


def _store_with_wrong_total(tmp_path):
    path = str(tmp_path / "s.g6")
    store = GraphStore(3, 5)
    store.add(cycle(5))
    store.write(path)
    meta = open(path + ".meta").read().replace("total=1", "total=2")
    with open(path + ".meta", "w") as fh:
        fh.write(meta)
    return path


def _mtf_with_triangle(tmp_path):
    path = str(tmp_path / "mtf.g6")
    with open(path, "w") as fh:
        fh.write(encode_graph6(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
                 + "\n")
    return path


@pytest.mark.parametrize("make, argv, code", [
    (_store_with_bad_line, ["verify", "--k", "3", "--store"], 2),
    (_store_with_wrong_total, ["verify", "--k", "3", "--store"], 1),
    (_mtf_with_triangle, ["closure", "--k", "3", "--out", "o.g6", "--mtf"], 1),
    (_store_with_bad_line, ["count", "--store"], 2),
], ids=["verify-bad-line", "verify-total-mismatch", "closure-triangle",
        "count-bad-line"])
def test_typed_input_errors(tmp_path, capsys, monkeypatch, make, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(argv + [make(tmp_path)]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1
