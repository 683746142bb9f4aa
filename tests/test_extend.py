import dataclasses
import gc

import pytest

from ramsey3k.canon import canonical_form, rooted_key
from ramsey3k.extend import (
    ExtensionTask,
    StructuralRule,
    _hub_canonical,
    edge_removal_closure,
    glue_extend,
    is_maximal_triangle_free,
    min_degree_extend,
    structural_filter,
)
from ramsey3k.graphs import (
    CapacityError,
    ClassParams,
    Graph,
    local_subgraph,
    validate_member,
)
from ramsey3k.indepcache import TABLE_MAX_ORDER, independent_sets
from ramsey3k.oracle import brute_force_graphs, naive_mtf_set

from conftest import cycle, path, petersen, random_triangle_free

# prune_canonical is left out: it is neutral per store, not per host, and is
# checked at store level in test_pipeline.py and test_cli.py
PRUNE_FIELDS = ("prune_pair", "prune_forbidden", "prune_ascending",
                "prune_edge_bound", "prune_automorphic", "prune_union")


class TestGlueExtend:
    def test_k2_to_c5(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        res = glue_extend(k2, ExtensionTask(k=2, d=2, e_max=5, d_min=2))
        assert list(res) == [canonical_form(cycle(5))]

    def test_degree_zero_adds_isolated_vertex(self):
        res = glue_extend(cycle(5), ExtensionTask(k=3, d=0, e_max=9))
        (g,) = res.values()
        assert g.n == 6 and g.edge_count() == 5 and g.degree(5) == 0

    def test_c5_degree2_against_oracle(self):
        res = glue_extend(cycle(5), ExtensionTask(k=3, d=2, e_max=11, d_min=1))
        want = {}
        c5form = canonical_form(cycle(5))
        for form, g in brute_force_graphs(8, 4, 11).items():
            for v in range(8):
                if g.degree(v) == 2 and \
                        canonical_form(local_subgraph(g, v)) == c5form:
                    want[form] = g
                    break
        assert set(res) == set(want)

    def test_every_output_is_sound(self):
        task = ExtensionTask(k=4, d=3, e_max=14, d_min=1)
        for h in brute_force_graphs(6, 4, 8).values():
            hform = canonical_form(h)
            for g in glue_extend(h, task).values():
                params = validate_member(g, 5)
                assert params.e <= 14 and g.min_degree() >= 1
                witnesses = [v for v in range(g.n) if g.degree(v) == 3 and
                             canonical_form(local_subgraph(g, v)) == hform]
                assert witnesses

    def test_invalid_input_rejected(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        from ramsey3k.graphs import MembershipError
        with pytest.raises(MembershipError):
            glue_extend(k3, ExtensionTask(k=3, d=1, e_max=9))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            glue_extend(Graph.empty(60), ExtensionTask(k=8, d=6, e_max=99))

    def test_regular_outputs(self):
        # 2-regular (3,3)-graphs on 5 vertices from K2: just C5
        k2 = Graph.from_edges(2, [(0, 1)])
        task = ExtensionTask(k=2, d=2, e_max=5, d_min=2, delta_max=2)
        res = glue_extend(k2, task)
        assert list(res) == [canonical_form(cycle(5))]
        for g in res.values():
            assert all(g.degree(v) == 2 for v in range(g.n))


class TestPruningNeutrality:
    @pytest.mark.parametrize("field", PRUNE_FIELDS)
    def test_single_rule_disabled(self, field):
        tasks = [
            (6, ExtensionTask(k=3, d=2, e_max=11, d_min=1)),
            (7, ExtensionTask(k=4, d=2, e_max=13)),
            (6, ExtensionTask(k=4, d=3, e_max=14)),
            (5, ExtensionTask(k=5, d=4, e_max=15)),
        ]
        for m, task in tasks:
            off = dataclasses.replace(task, **{field: False})
            for h in brute_force_graphs(m, task.k, None).values():
                assert set(glue_extend(h, task)) == set(glue_extend(h, off)), \
                    (field, m, task)

    def test_automorphic_rule_prunes(self, monkeypatch):
        leaves = []

        def counting_form(g):
            leaves.append(g)
            return canonical_form(g)

        monkeypatch.setattr("ramsey3k.extend.canonical_form", counting_form)
        task = ExtensionTask(k=5, d=4, e_max=30)
        off = dataclasses.replace(task, prune_automorphic=False)
        on_out = glue_extend(petersen(), task)
        on_leaves = len(leaves)
        leaves.clear()
        assert set(glue_extend(petersen(), off)) == set(on_out)
        assert on_leaves < len(leaves)

    def test_lazy_matches_table(self, monkeypatch):
        def outputs():
            return [set(glue_extend(h, task))
                    for m, task in [(6, ExtensionTask(k=4, d=3, e_max=14)),
                                    (7, ExtensionTask(k=4, d=2, e_max=13))]
                    for h in brute_force_graphs(m, task.k, None).values()]
        want = outputs()
        # no host fits a table of order -1: every query goes to branch and bound
        monkeypatch.setattr("ramsey3k.extend.TABLE_MAX_ORDER", -1)
        assert outputs() == want

    def test_multiword_set_masks(self, monkeypatch):
        # C13(1,5) minus a vertex is a (3,5;12)-member with 144 independent
        # sets of order <= 4, so set masks span several machine words and
        # the packed compatibility rows cross byte boundaries
        c13 = Graph.from_edges(13, [(i, (i + j) % 13) for i in range(13)
                                    for j in (1, 5)])
        host = c13.induced((1 << 12) - 1)
        task = ExtensionTask(k=5, d=3, e_max=36)
        assert len(independent_sets(host, 0, 4)) > 64
        want = set(glue_extend(host, task))
        assert want
        # a cap of -1 leaves the compatibility rows to branch and bound
        for table_cap in (TABLE_MAX_ORDER, -1):
            monkeypatch.setattr("ramsey3k.extend.TABLE_MAX_ORDER", table_cap)
            assert set(glue_extend(host, task)) == want
            for field in PRUNE_FIELDS:
                off = dataclasses.replace(task, **{field: False})
                assert set(glue_extend(host, off)) == want, (table_cap, field)


class TestCanonicalHub:
    def accepted_hubs(self, g, ceilings):
        """Vertices v whose copy of g with v moved last passes the test."""
        accepted = []
        for v in range(g.n):
            perm = list(range(g.n))
            perm[v], perm[-1] = perm[-1], perm[v]
            if _hub_canonical(g.permuted(perm), g.edge_count(), ceilings):
                accepted.append(v)
        return accepted

    def test_exactly_one_orbit_accepted(self, rng):
        # the (3,5;10,<=14) members include vertices that tie on the
        # invariant without sharing an orbit, so the rooted key decides
        graphs = [petersen(), path(7), cycle(8)]
        graphs += brute_force_graphs(10, 5, 14).values()
        graphs += [random_triangle_free(rng.randrange(6, 13), 0.4, rng)
                   for _ in range(40)]
        for g in graphs:
            # every vertex covered: the ceiling e(G) bounds any e(G) - Z(v)
            ceilings = {g.degree(v): g.edge_count() for v in range(g.n)}
            accepted = self.accepted_hubs(g, ceilings)
            keys = {rooted_key(g, v) for v in accepted}
            assert len(keys) == 1, g
            orbit = [v for v in range(g.n) if rooted_key(g, v) in keys]
            assert accepted == orbit, g

    def test_uncovered_vertices_do_not_compete(self):
        # the path's ends have the smallest invariant, but with only degree 2
        # covered the canonical degree-2 hubs are the second and second-last
        # vertices
        g = path(6)
        accepted = self.accepted_hubs(g, {2: g.edge_count()})
        assert [v for v in accepted if g.degree(v) == 2] == [1, 4]


def test_search_state_freed_without_collector():
    hosts = brute_force_graphs(7, 4, None).values()
    task = ExtensionTask(k=4, d=2, e_max=13)
    gc.collect()
    gc.disable()
    try:
        for h in hosts:
            glue_extend(h, task)
            canonical_form(h)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestMinDegreeExtend:
    def test_c5_class(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        res = min_degree_extend(ClassParams(3, 5, 5), 2, [k2])
        assert list(res) == [canonical_form(cycle(5))]

    def test_oracle_equivalence_small(self):
        for (k, n, e_max) in [(4, 8, 10), (5, 9, 36), (4, 7, 21)]:
            want = set(brute_force_graphs(n, k, e_max))
            got = set()
            for d in range(0, n):
                inputs = brute_force_graphs(n - d - 1, k - 1,
                                            max(0, e_max - d * d))
                res = min_degree_extend(ClassParams(k, n, e_max), d,
                                        inputs.values())
                got |= set(res)
            assert got == want, (k, n)

    def test_unachievable_degree_empty(self):
        res = min_degree_extend(ClassParams(3, 7, 9), 5, [])
        assert res == {}


class TestMaximalTriangleFree:
    def test_examples(self):
        assert is_maximal_triangle_free(cycle(5))
        assert not is_maximal_triangle_free(path(4))
        assert is_maximal_triangle_free(petersen())

    def test_closure_c5(self):
        res = edge_removal_closure([cycle(5)], 3)
        assert set(res) == {canonical_form(cycle(5))}

    def test_closure_equals_oracle(self):
        mtf = naive_mtf_set(8, 4)
        closed = edge_removal_closure(mtf.values(), 4)
        assert set(closed) == set(brute_force_graphs(8, 4, None))

    def test_closure_empty_at_ramsey_boundary(self):
        assert naive_mtf_set(9, 4) == {}

    def test_floor(self):
        mtf = naive_mtf_set(7, 4)
        closed = edge_removal_closure(mtf.values(), 4, e_floor=8)
        assert closed
        assert all(g.edge_count() >= 8 for g in closed.values())
        full = edge_removal_closure(mtf.values(), 4)
        want = {f for f, g in full.items() if g.edge_count() >= 8}
        assert set(closed) == want

    def test_non_maximal_input_rejected(self):
        with pytest.raises(ValueError):
            edge_removal_closure([path(4)], 3)


class TestStructuralFilter:
    def test_examples(self):
        c5 = cycle(5)
        assert structural_filter([c5], [StructuralRule(2, 2, 2)]) == [c5]
        assert structural_filter([c5], [StructuralRule(2, 2, 1)]) == []
        pet = petersen()
        assert structural_filter([pet], [StructuralRule(3, 3, 3)]) == [pet]

    def test_mixed_degrees(self):
        # star plus pendant chain: one degree-3 vertex with two leaves
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        assert structural_filter([g], [StructuralRule(3, 1, 2)]) == [g]
        assert structural_filter([g], [StructuralRule(3, 1, 3)]) == []

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            StructuralRule(16, 2, 1)
        with pytest.raises(ValueError):
            StructuralRule(2, 2, -1)
