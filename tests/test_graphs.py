import pickle

import pytest

from ramsey3k.graphs import (
    CapacityError,
    ClassParams,
    Graph,
    GraphFormatError,
    MembershipError,
    circulant,
    decode_graph6,
    encode_graph6,
    find_independent_set,
    graph6_edge_count,
    independence_number,
    is_triangle_free,
    local_subgraph,
    validate_member,
    z_value,
)
from ramsey3k.degseq import BoundEntry, EXACT, EdgeBoundTable

from conftest import (cycle, deficiency_from_histogram, deficiency_graph,
                      deficiency_vertex, path, petersen, random_triangle_free)


def simple_table(entries):
    t = EdgeBoundTable()
    for (k, n), v in entries.items():
        t.set(k, n, BoundEntry(EXACT, v, "test"))
    return t


class TestGraph6:
    def test_empty_pair(self):
        g = decode_graph6("A?")
        assert g.n == 2 and g.edge_count() == 0
        assert encode_graph6(g) == "A?"

    def test_k2(self):
        g = decode_graph6("A_")
        assert g.n == 2 and g.edge_count() == 1
        assert encode_graph6(Graph.from_edges(2, [(0, 1)])) == "A_"

    def test_c5_natural(self):
        assert encode_graph6(cycle(5)) == "Dhc"
        assert decode_graph6("Dhc") == cycle(5)

    def test_roundtrip_random(self, rng):
        for n in (0, 1, 2, 7, 13, 33, 63, 64):
            g = random_triangle_free(n, 0.3, rng)
            assert decode_graph6(encode_graph6(g)) == g

    def test_edge_count_from_text(self, rng):
        # orders 63 and 64 take the four-byte '~' header
        for n in (0, 1, 2, 7, 13, 62, 63, 64):
            for p in (0.0, 0.3, 1.0):
                g = random_triangle_free(n, p, rng)
                assert graph6_edge_count(encode_graph6(g)) == g.edge_count()

    def test_roundtrip_text(self, rng):
        for n in (3, 9, 17):
            text = encode_graph6(random_triangle_free(n, 0.4, rng))
            assert encode_graph6(decode_graph6(text)) == text

    def test_networkx_agreement(self, rng):
        nx = pytest.importorskip("networkx")
        for n in range(1, 14):
            g = random_triangle_free(n, 0.35, rng)
            text = encode_graph6(g)
            other = nx.from_graph6_bytes(text.encode())
            assert set(other.edges()) == {
                (u, v) for (u, v) in (tuple(sorted(e)) for e in g.edges())}
            back = nx.to_graph6_bytes(other, header=False).decode().strip()
            assert back == text

    def test_malformed(self):
        with pytest.raises(GraphFormatError):
            decode_graph6("")
        with pytest.raises(GraphFormatError):
            decode_graph6("D")          # truncated payload
        with pytest.raises(GraphFormatError):
            decode_graph6("A" + chr(200))
        with pytest.raises(GraphFormatError):
            decode_graph6("A@")         # nonzero padding for n=2? '@'=0: ok
        # 66-vertex header is rejected by the order cap
        with pytest.raises(GraphFormatError):
            decode_graph6("~?A")

    def test_padding_enforced(self):
        # K2 has one payload bit; any nonzero padding must be rejected
        with pytest.raises(GraphFormatError):
            decode_graph6("A" + chr(63 + 0b100001))


class TestPredicates:
    def test_triangle_free(self):
        assert is_triangle_free(cycle(5))
        assert not is_triangle_free(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert is_triangle_free(petersen())

    def test_independence(self):
        assert independence_number(Graph.empty(5)) == 5
        assert independence_number(cycle(5)) == 2
        assert independence_number(petersen()) == 4

    def test_independence_brute_agreement(self, rng):
        from itertools import combinations
        for _ in range(30):
            g = random_triangle_free(9, 0.3, rng)
            best = 0
            for r in range(g.n, 0, -1):
                if any(all(not g.has_edge(u, v) for u, v in combinations(c, 2))
                       for c in combinations(range(g.n), r)):
                    best = r
                    break
            assert independence_number(g) == best

    def test_early_exit(self):
        g = Graph.empty(8)
        assert independence_number(g, stop_at=3) >= 3

    def test_witness(self):
        m = find_independent_set(petersen(), 4)
        assert m is not None and m.bit_count() == 4
        verts = [v for v in range(10) if m >> v & 1]
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                assert not petersen().has_edge(u, v)
        assert find_independent_set(petersen(), 5) is None


class TestMembership:
    def test_c5_accepts_k3(self):
        assert validate_member(cycle(5), 3) == ClassParams(3, 5, 5)

    def test_c5_rejects_k2(self):
        with pytest.raises(MembershipError) as err:
            validate_member(cycle(5), 2)
        assert err.value.witness_kind == "independent-set"
        assert err.value.witness.bit_count() == 2

    def test_triangle_witness(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(MembershipError) as err:
            validate_member(k3, 3)
        assert err.value.witness_kind == "triangle"

    def test_circulant_13(self):
        g = circulant(13, {1, 5})
        assert validate_member(g, 5) == ClassParams(5, 13, 26)

    def test_errors_survive_pickling(self):
        # worker processes hand errors back pickled
        err = pickle.loads(pickle.dumps(
            MembershipError("triangle (0, 1, 2)", "triangle", (0, 1, 2))))
        assert isinstance(err, MembershipError)
        assert (str(err), err.witness_kind, err.witness) == \
            ("triangle (0, 1, 2)", "triangle", (0, 1, 2))
        err = pickle.loads(pickle.dumps(GraphFormatError("bad byte", 3)))
        assert isinstance(err, GraphFormatError)
        assert (str(err), err.offset) == ("bad byte (offset 3)", 3)


class TestLocalStructure:
    def test_z_values(self):
        assert z_value(cycle(5), 0) == 4
        star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert z_value(star, 0) == 3
        assert z_value(path(3), 1) == 2

    def test_local_subgraph(self):
        gv = local_subgraph(cycle(5), 0)
        assert gv.n == 2 and gv.edge_count() == 1
        gv = local_subgraph(petersen(), 0)
        assert (gv.n, gv.edge_count()) == (6, 6)
        assert independence_number(gv) == 3  # C6
        assert local_subgraph(Graph.from_edges(2, [(0, 1)]), 0).n == 0

    def test_gv_contract(self, rng):
        # members map to members one level down, with the edge identity
        for _ in range(20):
            g = random_triangle_free(9, 0.3, rng)
            k = independence_number(g) + 1
            for v in range(g.n):
                gv = local_subgraph(g, v)
                assert is_triangle_free(gv)
                assert independence_number(gv) < k
                assert gv.edge_count() == g.edge_count() - z_value(g, v)

    def test_relabeling_preserves_order(self):
        g = Graph.from_edges(6, [(0, 5), (1, 2), (3, 4)])
        gv = local_subgraph(g, 0)  # drops 0 and 5, keeps 1,2,3,4 in order
        assert gv.n == 4
        assert gv.has_edge(0, 1) and gv.has_edge(2, 3)


class TestDeficiency:
    def test_c5(self):
        t = simple_table({(2, 2): 1})
        for v in range(5):
            assert deficiency_vertex(cycle(5), v, 3, t) == 0
        assert deficiency_graph(cycle(5), 3, t) == 0

    def test_degree_zero_vertex(self):
        g = Graph.from_edges(3, [(0, 1)])
        t = simple_table({(3, 2): 1})
        assert deficiency_vertex(g, 2, 4, t) == 1 - 0 - 1

    def test_circulant35(self):
        g = circulant(35, {1, 7, 11, 16})
        t = simple_table({(8, 26): 73})
        for v in (0, 7, 19):
            assert z_value(g, v) == 64
            assert deficiency_vertex(g, v, 9, t) == 140 - 64 - 73 == 3
        assert deficiency_graph(g, 9, t) == 35 * 140 - 35 * (64 + 73) == 105

    def test_histogram_identity(self, rng):
        # vertex-sum form equals the degree-sequence form
        t = simple_table({(4, m): b for m, b in
                          [(0, 0), (1, 0), (2, 0), (3, 0), (4, 1), (5, 2),
                           (6, 3), (7, 6), (8, 10)]})
        for _ in range(25):
            g = random_triangle_free(9, 0.25, rng)
            if independence_number(g) >= 5 or g.max_degree() >= 5:
                continue
            lhs = deficiency_graph(g, 5, t)
            rhs = deficiency_from_histogram(
                g.n, g.edge_count(), g.degree_histogram(), 5, t)
            assert lhs == rhs

    def test_infinite_entry_is_error(self):
        from ramsey3k.degseq import INFINITE, InfiniteBoundError
        t = EdgeBoundTable()
        t.set(2, 3, BoundEntry("infinite", None, "test"))
        g = Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)])
        with pytest.raises(InfiniteBoundError):
            deficiency_vertex(g, 0, 3, t)


class TestCirculant:
    def test_c5(self):
        assert circulant(5, {1}) == cycle(5)

    def test_c13(self):
        g = circulant(13, {1, 5})
        assert g.edge_count() == 26
        assert all(g.degree(v) == 4 for v in range(13))
        assert is_triangle_free(g)
        assert independence_number(g) == 4

    def test_c35(self):
        g = circulant(35, {1, 7, 11, 16})
        assert g.edge_count() == 140
        assert all(g.degree(v) == 8 for v in range(35))
        assert is_triangle_free(g)
        assert independence_number(g) == 8

    def test_bad_distance(self):
        with pytest.raises(ValueError):
            circulant(10, {6})


class TestConstruction:
    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            Graph(2, (1, 0))      # asymmetric
        with pytest.raises(ValueError):
            Graph(1, (1,))        # self-loop
        with pytest.raises(ValueError):
            Graph(2, (4, 0))      # bit over order
        with pytest.raises(CapacityError):
            Graph.empty(65)

    def test_class_params_validation(self):
        with pytest.raises(ValueError):
            ClassParams(3, 4, 7)
        with pytest.raises(ValueError):
            ClassParams(0, 4, 2)
