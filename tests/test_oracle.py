import os
import random
import subprocess
import sys
from collections import Counter

import pytest

import ramsey3k
from ramsey3k.canon import IsoIndex, canonical_form, rooted_key
from ramsey3k.graphs import (CapacityError, Graph, circulant, decode_graph6,
                             local_subgraph, validate_member)
from ramsey3k.oracle import (
    add_edge_closure_check,
    brute_force_graphs,
    gv_consistency_check,
    min_edge_count,
    naive_mtf_set,
    verify_minimality,
)

from conftest import cycle, random_triangle_free


# triangle-free graphs up to isomorphism, orders 1..9
TRIANGLE_FREE_COUNTS = [1, 2, 3, 7, 14, 38, 107, 410, 1897]


class TestBruteForce:
    def test_unique_pentagon(self):
        assert list(brute_force_graphs(5, 3, None)) == [canonical_form(cycle(5))]

    def test_empty_at_six(self):
        assert brute_force_graphs(6, 3, None) == {}

    def test_min_edges(self):
        assert min_edge_count(8, 4) == 10
        assert min_edge_count(9, 4) is None
        assert min_edge_count(11, 5, probe_cap=15) == 15

    def test_triangle_free_counts(self):
        # with the independence bound switched off, the generator counts all
        # triangle-free graphs; the classical sequence pins it down
        for n, want in enumerate(TRIANGLE_FREE_COUNTS[:7], start=1):
            assert len(brute_force_graphs(n, n + 1, None)) == want

    def test_labelled_cross_check(self):
        # second route: filter all labelled graphs on 6 vertices directly
        from itertools import combinations
        import ramsey3k.graphs as G
        pairs = list(combinations(range(6), 2))
        forms = set()
        for bits in range(1 << 15):
            edges = [pairs[i] for i in range(15) if bits >> i & 1]
            g = Graph.from_edges(6, edges)
            if G.is_triangle_free(g):
                forms.add(canonical_form(g))
        assert len(forms) == 38
        assert forms == set(brute_force_graphs(6, 7, None))

    def test_counts_nonincreasing_in_k(self):
        sizes = [len(brute_force_graphs(8, k, None)) for k in (3, 4, 5, 6)]
        assert sizes == sorted(sizes)

    def test_all_members_validate(self):
        store = brute_force_graphs(9, 4, None)
        for form, g in store.items():
            assert validate_member(g, 4).n == 9
            assert canonical_form(g) == form

    def test_cap(self):
        with pytest.raises(CapacityError):
            brute_force_graphs(13, 5, None)

    def test_report(self):
        # the minimal (3,4;8)-graph is unique, and one graph sits at each
        # edge count up to the 12-edge maximum
        found = brute_force_graphs(8, 4, 11)
        assert Counter(g.edge_count() for g in found.values()) == {10: 1, 11: 1}
        assert len(found) == 2


class TestMtf:
    def test_pentagon(self):
        assert list(naive_mtf_set(5, 3)) == [canonical_form(cycle(5))]

    def test_boundary_empty(self):
        assert naive_mtf_set(9, 4) == {}

    def test_subset_and_closure_identity(self):
        from ramsey3k.extend import edge_removal_closure
        for (n, k) in [(7, 4), (8, 4), (8, 5), (9, 5)]:
            everything = brute_force_graphs(n, k, None)
            mtf = naive_mtf_set(n, k)
            assert set(mtf) <= set(everything)
            closed = edge_removal_closure(mtf.values(), k)
            assert set(closed) == set(everything), (n, k)


class TestVerifyMinimality:
    def test_c5(self):
        assert verify_minimality(cycle(5), 3)

    def test_c5_plus_isolated(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert verify_minimality(g, 4)

    def test_c35_witness(self):
        assert verify_minimality(circulant(35, {1, 7, 11, 16}), 9)

    def test_negative(self):
        # C5 plus a chord-free extra edge pattern: a 6-cycle is not edge
        # minimal for k=4 (alpha stays 3 after dropping an edge... it is
        # minimal iff every deletion reaches alpha 4)
        c6 = cycle(6)
        assert validate_member(c6, 4)
        assert not verify_minimality(c6, 4)

    def test_agrees_with_direct_deletion(self):
        from ramsey3k.graphs import independence_number
        # the (3,2)-members are K0, K1 and K2
        boxes = [(n, 2, None) for n in range(3)] + [(8, 4, 11)]
        for n, k, e_max in boxes:
            for g in brute_force_graphs(n, k, e_max).values():
                direct = all(
                    independence_number(g.remove_edge(u, v)) >= k
                    for (u, v) in g.edges())
                assert verify_minimality(g, k) == direct


class TestAddEdgeClosure:
    def test_c5_closed(self):
        c5 = cycle(5)
        assert add_edge_closure_check([c5], 1, 3, {canonical_form(c5)})

    def test_oracle_boxes(self):
        base = brute_force_graphs(8, 4, 10)
        ref = brute_force_graphs(8, 4, 11)
        assert add_edge_closure_check(base.values(), 1, 4, set(ref), n=8)

    def test_truncations_match_full_forms(self):
        # every single-member truncation of the (3,4;8) class (10, 11 and
        # 12 edges) gives the verdict of the full-form definition, at f=1
        # and f=2, from the (8;4,<=11) members and from the 10-edge one
        full = set(brute_force_graphs(8, 4, None))
        verdicts = []
        for e_base in (10, 11):
            base = list(brute_force_graphs(8, 4, e_base).values())
            for f in (1, 2):
                for drop in [None] + sorted(full):
                    ref = full - {drop}
                    want = _closure_verdict(base, f, ref)
                    assert add_edge_closure_check(base, f, 4, ref, n=8) == want, \
                        (e_base, f, drop)
                    verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_random_hosts_test_every_orbit(self, rng):
        # hosts with small automorphism groups: every graph one or two
        # additions reach must be tested, so dropping any one of them from
        # the reference is seen
        for _ in range(6):
            base = [random_triangle_free(9, rng.uniform(0.1, 0.3), rng)]
            for f in (1, 2):
                reach = _reachable_forms(base, f)
                drops = sorted(reach)
                if f == 2:
                    drops = rng.sample(drops, min(6, len(drops)))
                assert add_edge_closure_check(base, f, 9, reach)
                for drop in drops:
                    assert not add_edge_closure_check(
                        base, f, 9, reach - {drop}), (f, drop)

    def test_mismatch_error(self):
        with pytest.raises(ValueError):
            add_edge_closure_check([cycle(5)], 1, 3, set(), n=6)


class TestGvConsistency:
    def test_c5_parents(self):
        ref = {canonical_form(Graph.from_edges(2, [(0, 1)]))}
        assert gv_consistency_check([cycle(5)], 3, ref, ref_n=2)

    def test_oracle_levels(self):
        parents = brute_force_graphs(8, 4, None)
        for m in range(4, 8):
            ref = brute_force_graphs(m, 3, None)
            assert gv_consistency_check(parents.values(), 4, set(ref), ref_n=m)

    def test_reference_order_outside_window(self):
        # a G_v of a (3,4)-graph on 7 vertices has 3..6 vertices
        parents = brute_force_graphs(7, 4, 8).values()
        for m in (2, 7, 8):
            with pytest.raises(ValueError, match=f"reference order {m}"):
                gv_consistency_check(parents, 4, set(), ref_n=m)

    def test_negative_control(self):
        ref = set()
        assert not gv_consistency_check([cycle(5)], 3, ref, ref_n=2)

    def test_truncations_match_full_forms(self):
        # G_v's of the (3,4;8) class against every single-member truncation
        # of each (3,3;m) level, with and without an edge cap
        parents = list(brute_force_graphs(8, 4, None).values())
        verdicts = []
        for m in range(4, 8):
            full = set(brute_force_graphs(m, 3, None))
            for e_max in (None, 3):
                for drop in [None] + sorted(full):
                    ref = full - {drop}
                    want = all(
                        canonical_form(h) in ref
                        for g in parents for v in range(g.n)
                        if g.n - 1 - g.degree(v) == m
                        for h in [local_subgraph(g, v)]
                        if e_max is None or h.edge_count() <= e_max)
                    assert gv_consistency_check(
                        parents, 4, ref, ref_n=m, ref_e_max=e_max) == want, \
                        (m, e_max, drop)
                    verdicts.append(want)
        assert True in verdicts and False in verdicts


def _reachable_forms(base, f) -> set:
    """Forms of the graphs up to f triangle-free additions above base."""
    forms, level = set(), list(base)
    for _ in range(f):
        level = [g.add_edge(u, v) for g in level
                 for u in range(g.n) for v in range(u + 1, g.n)
                 if not (g.has_edge(u, v) or g.adj[u] & g.adj[v])]
        forms |= {canonical_form(h) for h in level}
    return forms


def _closure_verdict(base, f, ref) -> bool:
    """The add-edge verdict from full canonical forms: every graph reached by
    adding up to f edges, closing no triangle, to a base member is in ref or
    isomorphic to a base member."""
    seen = {canonical_form(g) for g in base}
    level = list(base)
    for _ in range(f):
        nxt = []
        for g in level:
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if g.has_edge(u, v) or g.adj[u] & g.adj[v]:
                        continue
                    h = g.add_edge(u, v)
                    form = canonical_form(h)
                    if form in seen:
                        continue
                    if form not in ref:
                        return False
                    seen.add(form)
                    nxt.append(h)
        level = nxt
    return True


@pytest.mark.slow
def test_gv_membership_matches_vf2(tmp_path):
    """An independent check of the index: for G_v's of census members, and
    for copies with one edge removed or one pair joined, membership in the
    (3,6;12,<=14) store equals VF2 isomorphism to a store graph of the same
    degree sequence.  Sampled census members also keep their form and
    rooted keys under random relabelling."""
    nx = pytest.importorskip("networkx")
    from ramsey3k.pipeline import Bootstrap

    def as_nx(g):
        out = nx.empty_graph(g.n)
        out.add_edges_from(g.edges())
        return out

    def degrees(g):
        return tuple(sorted(g.degree(v) for v in range(g.n)))

    bs = Bootstrap(str(tmp_path / "root"))
    census = sorted(bs.store(7, 16, 23).forms())
    members = [decode_graph6(form) for form in census]
    ref = bs.store(6, 12, 14)
    by_degrees: dict = {}
    for r in ref.graphs():
        by_degrees.setdefault(degrees(r), []).append(as_nx(r))
    index = IsoIndex(ref.forms())
    rng = random.Random(20130)
    for form in rng.sample(census, 200):
        g = decode_graph6(form)
        perm = rng.sample(range(g.n), g.n)
        h = g.permuted(perm)
        assert canonical_form(h) == form
        assert all(rooted_key(g, v) == rooted_key(h, perm[v])
                   for v in range(g.n))
    verdicts = Counter()
    for _ in range(300):
        g = rng.choice(members)
        h = local_subgraph(g, rng.choice(
            [v for v in range(g.n) if g.degree(v) == 3]))
        for cand in (h, h.remove_edge(*rng.choice(list(h.edges()))),
                     h.add_edge(*rng.sample(range(h.n), 2))):
            want = any(nx.is_isomorphic(as_nx(cand), r)
                       for r in by_degrees.get(degrees(cand), ()))
            assert (cand in index) == want
            verdicts[want] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 100, verdicts


def assert_unloaded_after(imports: str, module: str) -> None:
    """In a fresh process, importing ``imports`` leaves ``module`` unloaded."""
    code = ("import sys\n"
            f"import {imports}\n"
            f"print({module!r} in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(ramsey3k.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.stdout == "False\n", result.stdout + result.stderr


def test_oracle_and_verify_imports_leave_the_engine_unloaded():
    # the oracle cross-checks the gluing engine, so it must not share its
    # module; this also keeps the imports verify needs small
    assert_unloaded_after("ramsey3k.oracle, ramsey3k.store, ramsey3k.data",
                          "ramsey3k.extend")


def test_serial_runs_leave_multiprocessing_unloaded():
    # the worker pool is its only user, and a serial run needs no pool
    assert_unloaded_after("ramsey3k.pipeline", "multiprocessing")
