import hashlib
import os
import stat
import subprocess
import sys

import pytest

import ramsey3k
from ramsey3k.canon import canonical_form
from ramsey3k.graphs import (Graph, MembershipError, encode_graph6,
                             graph6_edge_count)
from ramsey3k.oracle import brute_force_graphs
from ramsey3k.store import (
    GraphStore,
    StoreError,
    digest,
    read_lines,
    read_records,
    render_count_table,
    write_lines,
)

from conftest import cycle


def filled_store(k=4, n=8, e_max=None):
    return GraphStore(k, n, e_max=e_max, complete=True, certificate="test",
                      lines=brute_force_graphs(n, k, e_max))


class TestGraphStore:
    def test_dedup(self, tmp_path):
        # read relabels every line canonically, so a relabelled copy of a
        # member is the same member
        c5 = cycle(5)
        relabeled = encode_graph6(c5.permuted([2, 0, 3, 1, 4]))
        assert relabeled != canonical_form(c5)
        path = str(tmp_path / "s.g6")
        write_lines(path, [canonical_form(c5), relabeled])
        store = GraphStore.read(path)
        store.write(path)
        assert read_lines(path) == [canonical_form(c5)]
        assert len(store) == 1

    def test_counts(self):
        store = filled_store()
        assert store.counts() == {10: 1, 11: 1, 12: 1}

    def test_box_check(self, tmp_path):
        path = str(tmp_path / "s.g6")
        c5 = [canonical_form(cycle(5))]
        GraphStore(3, 5, e_max=4, lines=c5).write(path)
        with pytest.raises(StoreError):
            GraphStore.read(path, check=True)
        GraphStore(2, 5, lines=c5).write(path)
        with pytest.raises(Exception):
            GraphStore.read(path, check=True)

    def test_edge_counts_from_lines(self):
        store = filled_store(e_max=11)
        assert store.counts() == {10: 1, 11: 1}
        assert [g.edge_count() for g in store.graphs()] == [
            graph6_edge_count(line) for line in sorted(store.forms())]

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

    @pytest.mark.parametrize("key", ["k", "n", "e_max", "complete", "total"])
    def test_malformed_meta_value(self, tmp_path, key):
        path = str(tmp_path / "s.g6")
        filled_store().write(path)
        meta = [f"{key}=x" if line.startswith(f"{key}=") else line
                for line in open(path + ".meta").read().splitlines()]
        write_lines(path + ".meta", meta)
        with pytest.raises(StoreError, match=f"s.g6.meta: malformed {key}="):
            GraphStore.read(path)

    def test_swapped_member_detected(self, tmp_path):
        # another valid member of the same box, so only the hash can tell
        members = brute_force_graphs(8, 4, 12)
        outsider, *kept = sorted(members)
        store = GraphStore(4, 8, e_max=12, lines=kept)
        path = str(tmp_path / "s.g6")
        store.write(path)
        lines = open(path).read().splitlines()
        lines[-1] = outsider
        with open(path, "w") as fh:
            fh.write("\n".join(sorted(lines)) + "\n")
        with pytest.raises(StoreError):
            GraphStore.read(path)

    def test_check_needs_a_class_bound(self, tmp_path):
        # no sidecar names k: a check without k raises instead of skipping
        path = str(tmp_path / "s.g6")
        write_lines(path, [canonical_form(cycle(5))])
        with pytest.raises(StoreError, match="s.g6: no class bound k"):
            GraphStore.read(path, check=True)
        assert len(GraphStore.read(path, check=True, k=3)) == 1
        with pytest.raises(MembershipError):
            GraphStore.read(path, check=True, k=2)

    def test_k1_members_checked(self, tmp_path):
        # the k=1 class holds only the vertexless graph
        path = str(tmp_path / "s.g6")
        base = GraphStore(1, 0, complete=True,
                          lines=[canonical_form(Graph.empty(0))])
        base.write(path)
        assert len(GraphStore.read(path, check=True)) == 1
        bad = GraphStore(1, 1, lines=[canonical_form(Graph.empty(1))])
        bad.write(path)
        with pytest.raises(MembershipError):
            GraphStore.read(path, check=True)


# the empty text, one line, and a census-sized store's text
DIGEST_TEXTS = ["", "Dhc\n", "".join(f"O{i:06d}\n" for i in range(3183))]


class TestDigest:
    @pytest.mark.parametrize("text", DIGEST_TEXTS, ids=["empty", "line", "store"])
    def test_is_truncated_sha256(self, text):
        assert digest(text) == hashlib.sha256(text.encode()).hexdigest()[:16]

    def test_hashlib_fallback(self):
        # an interpreter without the built-in module: the only run of the
        # hashlib branch, and the digests are the same
        code = ("import sys\n"
                "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "from ramsey3k.store import digest\n"
                f"for text in {DIGEST_TEXTS!r}:\n"
                "    print(digest(text))\n"
                "print('hashlib' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(ramsey3k.__file__))
        result = subprocess.run([sys.executable, "-c", code],
                                env=dict(os.environ, PYTHONPATH=src),
                                capture_output=True, text=True, timeout=60)
        assert result.stdout.split() == [digest(t) for t in DIGEST_TEXTS] + ["True"], (
            result.stderr)

    def test_content_hash_is_the_file_digest(self, tmp_path):
        store = filled_store()
        path = str(tmp_path / "s.g6")
        store.write(path)
        assert store.content_hash() == digest(open(path).read())
        assert GraphStore(4, 8).content_hash() == digest("")


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
        write_lines(path, ["# note=x", "k = 4", "", "a=b=c"])
        assert read_lines(path) == ["# note=x", "k = 4", "a=b=c"]
        assert read_records(path) == [("k", "4"), ("a", "b=c")]
        # a line that is neither a comment nor key=value is refused
        write_lines(path, ["k=4", "  junk  "])
        with pytest.raises(StoreError, match="line 'junk' is not key=value") as info:
            read_records(path)
        assert str(info.value).startswith(path)


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
