import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from ramsey3k import canon
from ramsey3k.canon import (
    IsoIndex,
    _canonical_search,
    _first_leaf_key,
    _initial_cells,
    _individualize,
    _refine,
    canonical_form,
    canonical_graph,
    canonical_labeling,
    canonical_with_automorphisms,
    rooted_key,
)
from ramsey3k.graphs import (Graph, bits, circulant, decode_graph6,
                             encode_graph6)

from conftest import cycle, path, petersen, random_graph, random_triangle_free


def test_relabelled_c5_equal():
    c5 = cycle(5)
    other = Graph.from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
    assert canonical_form(c5) == canonical_form(other)


def test_c4_vs_two_k2():
    c4 = cycle(4)
    m2 = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert canonical_form(c4) != canonical_form(m2)


def test_petersen_hundred_permutations(rng):
    base = petersen()
    want = canonical_form(base)
    for _ in range(100):
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_form(base.permuted(perm)) == want


def test_form_is_valid_graph6():
    g = petersen()
    back = decode_graph6(canonical_form(g))
    assert back.n == 10 and back.edge_count() == 15


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_permutation_invariance_random(data):
    n = data.draw(st.integers(0, 9))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]),
        max_size=n * 2))
    g = Graph.from_edges(n, edges)
    perm = data.draw(st.permutations(range(n)))
    assert canonical_form(g) == canonical_form(g.permuted(list(perm)))


def test_distinguishes_all_small_graphs():
    # every labelled 5-vertex graph: forms collide only for isomorphic pairs,
    # verified by counting classes against a permutation-closure partition
    pairs = list(combinations(range(5), 2))
    seen = {}
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph.from_edges(5, edges)
        seen.setdefault(canonical_form(g), set()).add(bits)
    assert len(seen) == 34  # unlabelled graphs on five vertices
    for members in seen.values():
        base_bits = next(iter(members))
        base_edges = [pairs[i] for i in range(len(pairs)) if base_bits >> i & 1]
        g = Graph.from_edges(5, base_edges)
        closure = set()
        for p in permutations(range(5)):
            h = g.permuted(list(p))
            code = 0
            for i, (u, v) in enumerate(pairs):
                if h.has_edge(u, v):
                    code |= 1 << i
            closure.add(code)
        assert members == closure


def test_symmetric_graphs_fast():
    # edgeless and complete-bipartite-like graphs have huge automorphism
    # groups; the search must not take factorial time
    import time
    t0 = time.time()
    canonical_form(Graph.empty(40))
    star = Graph.from_edges(33, [(0, i) for i in range(1, 33)])
    canonical_form(star)
    assert time.time() - t0 < 2.0


def test_automorphism_generators_are_automorphisms(rng):
    for _ in range(20):
        g = random_graph(8, 0.4, rng)
        _, gens = canonical_with_automorphisms(g)
        for sigma in gens:
            assert g.permuted(list(sigma)) == g


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rooted_key_relabelling_invariant(data):
    n = data.draw(st.integers(0, 9))
    edges = data.draw(st.sets(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]),
        max_size=n * 2))
    g = Graph.from_edges(n, edges)
    perm = list(data.draw(st.permutations(range(n))))
    h = g.permuted(perm)
    for v in range(n):
        assert rooted_key(g, v) == rooted_key(h, perm[v])


def test_rooted_key_petersen_and_path():
    pet = petersen()
    assert len({rooted_key(pet, v) for v in range(10)}) == 1
    p5 = path(5)
    keys = [rooted_key(p5, v) for v in range(5)]
    assert keys[0] == keys[4] and keys[1] == keys[3]
    assert len({keys[0], keys[1], keys[2]}) == 3


def test_rooted_key_classes_are_orbits(rng):
    # equal keys exactly for vertices in one orbit of the full automorphism
    # group, found here by trying every permutation
    for _ in range(12):
        g = random_graph(6, 0.4, rng)
        orbit_of = {v: {v} for v in range(6)}
        for p in permutations(range(6)):
            if g.permuted(list(p)) == g:
                for v in range(6):
                    orbit_of[v].add(p[v])
        for v in range(6):
            for w in range(6):
                assert (rooted_key(g, v) == rooted_key(g, w)) == \
                    (w in orbit_of[v])


def test_large_triangle_free_relabelling(rng):
    for _ in range(20):
        n = rng.randrange(16, 36)
        g = random_triangle_free(n, rng.uniform(0.05, 0.4), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.permuted(perm)
        assert canonical_form(g) == canonical_form(h)
        for v in rng.sample(range(n), 3):
            assert rooted_key(g, v) == rooted_key(h, perm[v])


def test_canonical_graph_is_the_relabelled_copy(rng):
    # the best leaf key is the relabelled adjacency, so building the graph
    # from it gives the old permute-by-labelling composition byte for byte
    for n in range(21):
        for _ in range(8):
            g = random_graph(n, rng.random(), rng)
            relabelled = g.permuted(canonical_labeling(g))
            assert canonical_graph(g) == relabelled
            assert canonical_form(g) == encode_graph6(relabelled)


def _graphs(n_max):
    """Hypothesis strategy: a graph of order 0..n_max."""
    return st.integers(0, n_max).flatmap(lambda n: st.sets(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]),
        max_size=n * 2).map(lambda edges: Graph.from_edges(n, edges)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_iso_index_holds_every_relabelling(data):
    refs = data.draw(st.lists(_graphs(9), min_size=1, max_size=4))
    index = IsoIndex(canonical_form(g) for g in refs)
    g = data.draw(st.sampled_from(refs))
    perm = list(data.draw(st.permutations(range(g.n))))
    assert g.permuted(perm) in index


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_iso_index_agrees_with_canonical_forms(data):
    refs = data.draw(st.lists(_graphs(7), max_size=4))
    h = data.draw(_graphs(7))
    forms = {canonical_form(g) for g in refs}
    assert (h in IsoIndex(forms)) == (canonical_form(h) in forms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_iso_index_of_raw_strings_claims_no_stranger(data):
    # strings that are not canonical forms may lose members, but a graph
    # never isomorphic to any of them is never a member
    refs = data.draw(st.lists(_graphs(7), max_size=4))
    h = data.draw(_graphs(7))
    if h in IsoIndex(encode_graph6(g) for g in refs):
        assert canonical_form(h) in {canonical_form(g) for g in refs}


# a graph whose search explores leaves of two distinct keys; some
# relabellings reach the non-canonical one first, so an index that tested
# only the first leaf's key would miss them
TWO_KEY_GRAPH = "F]v`w"


def test_iso_index_falls_back_to_the_best_key():
    g = decode_graph6(TWO_KEY_GRAPH)
    best = _canonical_search(g)[2]
    index = IsoIndex([canonical_form(g)])
    off_best = 0
    for perm in permutations(range(g.n)):
        h = g.permuted(list(perm))
        assert h in index
        off_best += _first_leaf_key(h) != best
    assert off_best > 0


# -- the refinement kernel against its per-cell specification ---------------

def _reference_refine(adj, cells):
    """Equitable refinement as specified: a vertex's signature packs its
    neighbour count in each cell, 7 bits a cell, the first cell highest."""
    cells = [list(c) for c in cells]
    while True:
        masks = [sum(1 << v for v in c) for c in cells]
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            groups = {}
            for v in cell:
                sig = 0
                for m in masks:
                    sig = sig << 7 | (adj[v] & m).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                cells[ci:ci + 1] = [groups[s] for s in sorted(groups)]
                break
        else:
            return cells


def _kernel_graphs():
    rng = random.Random(20140101)
    graphs = [random_graph(n, rng.random(), rng) for n in range(41)
              for _ in range(3)]
    graphs += [random_triangle_free(n, rng.uniform(0.05, 0.4), rng)
               for n in range(2, 41, 3)]
    graphs += [circulant(n, [1, 3, 5][:1 + n % 3]) for n in range(11, 41, 4)]
    graphs += [circulant(13, [1, 5]), circulant(17, [1, 2, 4, 8]), petersen()]
    return graphs


def test_form_with_generators():
    # one search hands out canonical_form's form and automorphisms of g
    for g in _kernel_graphs():
        form, gens = canonical_with_automorphisms(g)
        assert form == canonical_form(g)
        for sigma in gens:
            assert g.permuted(sigma) == g


def _random_partitions(g, rng):
    """Ordered partitions: the degree cells with random vertices
    individualized one after another, and random cuts of a shuffled
    vertex list."""
    cells = _initial_cells(g.adj)
    yield cells
    for _ in range(4):
        open_cells = [i for i, c in enumerate(cells) if len(c) > 1]
        if not open_cells:
            break
        target = rng.choice(open_cells)
        cells = _individualize(cells, target, rng.choice(cells[target]))
        yield cells
    order = rng.sample(range(g.n), g.n)
    cuts = sorted(rng.sample(range(1, g.n), min(3, max(g.n - 1, 0))))
    yield [order[a:b] for a, b in zip([0] + cuts, cuts + [g.n]) if a < b]


def test_refine_matches_per_cell_counts():
    rng = random.Random(7)
    for g in _kernel_graphs():
        nbrs, weight = [bits(m) for m in g.adj], [0] * g.n
        for cells in _random_partitions(g, rng):
            assert _refine(nbrs, cells, weight) == \
                _reference_refine(g.adj, cells), (encode_graph6(g), cells)


def test_search_matches_per_cell_counts(monkeypatch):
    graphs = _kernel_graphs()
    def outputs():
        return [(_canonical_search(g),
                 [rooted_key(g, v) for v in range(0, g.n, 5)]) for g in graphs]

    def spec(nbrs, cells, weight):
        adj = [sum(1 << u for u in row) for row in nbrs]
        return _reference_refine(adj, cells)

    got = outputs()
    monkeypatch.setattr(canon, "_refine", spec)
    assert got == outputs()


# -- store members and a fixed corpus ---------------------------------------

@pytest.fixture(scope="module")
def store_6_12_14(tmp_path_factory):
    """The sorted canonical lines of the (3,6;12,<=14) store."""
    from ramsey3k.pipeline import Bootstrap
    return sorted(Bootstrap(str(tmp_path_factory.mktemp("root"))).store(
        6, 12, 14).forms())


# sha256 of the forms below, as the kernel computed them before refinement
# by neighbour weights; a kernel change that moves any form must fail here
GOLDEN_DIGEST = (
    "1fdb3e800814c3db1c38741bc6a4139f956bf6d1c5518438f995e1b19cbe6854")


def test_golden_canonical_forms(store_6_12_14):
    rng = random.Random(20130430)
    graphs = [random_graph(rng.randrange(25), rng.random(), rng)
              for _ in range(2000)]
    for form in store_6_12_14:
        g = decode_graph6(form)
        graphs.append(g.permuted(rng.sample(range(g.n), g.n)))
    forms = "\n".join(canonical_form(g) for g in graphs)
    assert hashlib.sha256(forms.encode()).hexdigest() == GOLDEN_DIGEST


def assert_no_two_isomorphic(forms):
    """Independent duplicate check: networkx VF2 on every pair of forms with
    equal degree sequence and sorted Z (neighbour degree sums)."""
    nx = pytest.importorskip("networkx")
    groups: dict = {}
    for form in forms:
        h = decode_graph6(form)
        g = nx.empty_graph(h.n)
        g.add_edges_from(h.edges())
        key = (tuple(sorted(d for _, d in g.degree())),
               tuple(sorted(sum(g.degree(u) for u in g[v]) for v in g)))
        groups.setdefault(key, []).append(g)
    for group in groups.values():
        assert not any(nx.is_isomorphic(a, b) for a, b in combinations(group, 2))


def test_store_forms_pairwise_non_isomorphic(store_6_12_14):
    assert_no_two_isomorphic(store_6_12_14)


@pytest.mark.slow
def test_census_forms_pairwise_non_isomorphic(tmp_path):
    from ramsey3k.pipeline import Bootstrap
    census = Bootstrap(str(tmp_path)).store(7, 16, 23).forms()
    assert len(census) == 3183
    assert_no_two_isomorphic(census)


def test_store_members_relabelling_invariant(store_6_12_14):
    rng = random.Random(612)
    assert len(store_6_12_14) == 144
    for form in store_6_12_14:
        g = decode_graph6(form)
        perm = rng.sample(range(g.n), g.n)
        h = g.permuted(perm)
        assert canonical_form(h) == form
        for v in range(g.n):
            assert rooted_key(g, v) == rooted_key(h, perm[v])
