import os
import stat

import pytest

from ramsey3k.canon import canonical_form
from ramsey3k.graphs import Graph, MembershipError
from ramsey3k.oracle import brute_force_graphs
from ramsey3k.store import (
    GraphStore,
    StoreError,
    read_lines,
    read_records,
    render_count_table,
    write_lines,
)

from conftest import cycle


def filled_store(k=4, n=8, e_max=None):
    store = GraphStore(k, n, e_max=e_max, complete=True, certificate="test")
    for form, g in brute_force_graphs(n, k, e_max).items():
        store.add(g, form)
    return store


class TestGraphStore:
    def test_dedup(self):
        store = GraphStore(3, 5)
        c5 = cycle(5)
        assert store.add(c5)
        relabeled = c5.permuted([2, 0, 3, 1, 4])
        assert not store.add(relabeled)
        assert len(store) == 1

    def test_counts(self):
        store = filled_store()
        assert store.counts() == {10: 1, 11: 1, 12: 1}

    def test_box_check(self):
        store = GraphStore(3, 5, e_max=4)
        with pytest.raises(StoreError):
            store.add(cycle(5), check=True)
        with pytest.raises(Exception):
            GraphStore(2, 5).add(cycle(5), check=True)

    def test_restricted(self):
        store = filled_store()
        sub = store.restricted(11)
        assert sub.complete and len(sub) == 2
        assert all(g.edge_count() <= 11 for g in sub.graphs())

    def test_write_read_roundtrip(self, tmp_path):
        store = filled_store()
        path = str(tmp_path / "s.g6")
        store.write(path)
        back = GraphStore.read(path, check=True)
        assert back.forms() == store.forms()
        assert back.k == 4 and back.n == 8 and back.complete
        assert back.certificate == "test"
        assert back.content_hash() == store.content_hash()

    def test_lines_sorted(self, tmp_path):
        store = filled_store()
        path = str(tmp_path / "s.g6")
        store.write(path)
        lines = open(path).read().splitlines()
        assert lines == sorted(lines)
        assert all(line == canonical_form(Graph.empty(0)) or line
                   for line in lines)

    def test_total_mismatch_detected(self, tmp_path):
        store = filled_store()
        path = str(tmp_path / "s.g6")
        store.write(path)
        with open(path, "a") as fh:
            fh.write(canonical_form(cycle(5)) + "\n")
        with pytest.raises(StoreError):
            GraphStore.read(path)

    def test_swapped_member_detected(self, tmp_path):
        # another valid member of the same box, so only the hash can tell
        members = brute_force_graphs(8, 4, 12)
        outsider, *kept = sorted(members)
        store = GraphStore(4, 8, e_max=12)
        for form in kept:
            store.add(members[form], form)
        path = str(tmp_path / "s.g6")
        store.write(path)
        lines = open(path).read().splitlines()
        lines[-1] = outsider
        with open(path, "w") as fh:
            fh.write("\n".join(sorted(lines)) + "\n")
        with pytest.raises(StoreError):
            GraphStore.read(path)


    def test_k1_members_checked(self, tmp_path):
        # the k=1 class holds only the vertexless graph
        path = str(tmp_path / "s.g6")
        base = GraphStore(1, 0, complete=True)
        base.add(Graph.empty(0), check=True)
        base.write(path)
        assert len(GraphStore.read(path, check=True)) == 1
        bad = GraphStore(1, 1)
        bad.add(Graph.empty(1))
        bad.write(path)
        with pytest.raises(MembershipError):
            GraphStore.read(path, check=True)


class TestLineFiles:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = str(tmp_path / "f")
        write_lines(path, ["a", "b"])

        def cut_short():
            yield "c"
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            write_lines(path, cut_short())
        assert open(path).read() == "a\nb\n"
        assert read_lines(path) == ["a", "b"]

    def test_rename_made_durable(self, tmp_path, monkeypatch):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        write_lines(str(tmp_path / "f"), ["a"])
        assert synced.count(True) == 1

    def test_read_records(self, tmp_path):
        path = str(tmp_path / "f")
        write_lines(path, ["# note=x", "k = 4", "", "  junk  ", "a=b=c"])
        assert read_lines(path) == ["# note=x", "k = 4", "junk", "a=b=c"]
        assert read_records(path) == [("k", "4"), ("a", "b=c")]


class TestRenderCountTable:
    def test_shape(self):
        text = render_count_table({(16, 20): 2, (16, 21): 15, (17, 25): 2})
        lines = text.splitlines()
        assert lines[0].split("|")[1].split() == ["16", "17"]
        assert any(row.startswith("20") and "2" in row for row in lines)
        assert any(row.startswith("21") and "15" in row for row in lines)

    def test_empty_cells_blank(self):
        text = render_count_table({(5, 5): 1, (6, 7): 3})
        row5 = next(r for r in text.splitlines() if r.startswith("5 "))
        assert row5.split("|")[1].split() == ["1"]

    def test_empty(self):
        assert render_count_table({}).strip()
