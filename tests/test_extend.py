import dataclasses
import gc
import os

import pytest

from ramsey3k.canon import canonical_form, rooted_key
from ramsey3k.extend import (
    ExtensionTask,
    _assemble,
    _hub_canonical,
    _pair_rows,
    edge_removal_closure,
    glue_extend,
)
from ramsey3k.graphs import (
    CapacityError,
    Graph,
    MembershipError,
    find_addable_edge,
    independence_number,
    is_maximal_triangle_free,
    local_subgraph,
    validate_member,
    z_value,
)
from ramsey3k.indepcache import TABLE_MAX_ORDER, independent_sets
from ramsey3k.oracle import brute_force_graphs
from ramsey3k.pipeline import Bootstrap, JobManifest
from ramsey3k.store import GraphStore, read_lines

from conftest import (cycle, min_degree_store, naive_mtf_set, path, petersen,
                      random_triangle_free)

# prune_canonical is left out: it is neutral per store, not per host, and is
# checked at store level in test_pipeline.py and test_cli.py
PRUNE_FIELDS = ("prune_pair", "prune_ascending", "prune_edge_bound",
                "prune_automorphic", "prune_union")


class TestGlueExtend:
    def test_k2_to_c5(self):
        k2 = Graph.from_edges(2, [(0, 1)])
        res = glue_extend(k2, ExtensionTask(k=2, d=2, e_max=5))
        assert list(res) == [canonical_form(cycle(5))]

    def test_degree_zero_adds_isolated_vertex(self):
        res = glue_extend(cycle(5), ExtensionTask(k=3, d=0, e_max=9))
        (g,) = res.values()
        assert g.n == 6 and g.edge_count() == 5 and g.degree(5) == 0

    def test_c5_degree2_against_oracle(self):
        res = glue_extend(cycle(5), ExtensionTask(k=3, d=2, e_max=11))
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
        task = ExtensionTask(k=4, d=3, e_max=14)
        for h in brute_force_graphs(6, 4, 8).values():
            hform = canonical_form(h)
            for g in glue_extend(h, task).values():
                params = validate_member(g, 5)
                assert params.e <= 14
                witnesses = [v for v in range(g.n) if g.degree(v) == 3 and
                             canonical_form(local_subgraph(g, v)) == hform]
                assert witnesses

    def test_invalid_input_rejected(self):
        k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(MembershipError):
            glue_extend(k3, ExtensionTask(k=3, d=1, e_max=9))

    def test_capacity(self):
        with pytest.raises(CapacityError):
            glue_extend(Graph.empty(60), ExtensionTask(k=8, d=6, e_max=99))

    @pytest.mark.parametrize("d", [-1, 3])
    def test_hub_degree_outside_range(self, d):
        # a (3,k+1)-graph's neighbourhoods are independent: degrees 0..k
        with pytest.raises(ValueError, match="hub degree"):
            ExtensionTask(k=2, d=d, e_max=5)


class TestPruningNeutrality:
    @pytest.mark.parametrize("field", PRUNE_FIELDS)
    def test_single_rule_disabled(self, field):
        tasks = [
            (6, ExtensionTask(k=3, d=2, e_max=11)),
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
        # sets of order <= 4, so set masks and compatibility rows span
        # several machine words
        c13 = Graph.from_edges(13, [(i, (i + j) % 13) for i in range(13)
                                    for j in (1, 5)])
        host = c13.induced((1 << 12) - 1)
        task = ExtensionTask(k=5, d=3, e_max=36)
        assert len(independent_sets(host, 4)) > 64
        want = set(glue_extend(host, task))
        assert want
        # a cap of -1 leaves the union tests to branch and bound
        for table_cap in (TABLE_MAX_ORDER, -1):
            monkeypatch.setattr("ramsey3k.extend.TABLE_MAX_ORDER", table_cap)
            assert set(glue_extend(host, task)) == want
            for field in PRUNE_FIELDS:
                off = dataclasses.replace(task, **{field: False})
                assert set(glue_extend(host, off)) == want, (table_cap, field)

    def test_pair_rows_against_brute_force(self, monkeypatch, rng):
        # every bit of every row the descent builds is the pair test
        # itself, alpha(H - (S_a | S_b)) < k - 1, whether the set list
        # reaches order k - 1 or the (k-1)-sets are enumerated apart
        built = {}

        def recording(H, sets, k, complete):
            compat_row = _pair_rows(H, sets, k, complete)

            def row(a):
                built[id(sets), a] = (H, sets, k, complete, a, compat_row(a))
                return built[id(sets), a][-1]
            return row

        monkeypatch.setattr("ramsey3k.extend._pair_rows", recording)
        hosts = [random_triangle_free(m, p, rng)
                 for m in (6, 7, 8, 9) for p in (0.45, 0.7)]
        for table_cap in (TABLE_MAX_ORDER, -1):
            monkeypatch.setattr("ramsey3k.extend.TABLE_MAX_ORDER", table_cap)
            built.clear()
            for h in hosts:
                k = independence_number(h) + 1
                for d in (2, 3):
                    for slack in (1, k + 2):
                        glue_extend(h, ExtensionTask(
                            k=k, d=d, e_max=h.edge_count() + d + slack))
            entries = list(built.values())
            assert {entry[3] for entry in entries} == {False, True}
            for H, sets, k, _, a, row in entries:
                full = (1 << H.n) - 1
                assert row >> len(sets) == 0
                for b, s in enumerate(sets):
                    rest = H.induced(full & ~(sets[a] | s))
                    assert (row >> b & 1 == 1) == \
                        (independence_number(rest) < k - 1), (H, k, a, b)


# the cuts a node makes on its set list before or during its scan
NODE_CUTS = ("prune_edge_bound", "prune_pair", "prune_union")


def assert_cuts_end_dead_branches(monkeypatch, hosts, k):
    """Glue each host at d = 1..k and edge slack 0, 3 and 8 above
    e(H) + d: with any node cut off, _assemble runs as often and the
    outputs are the same, so each cut ends only branches without a leaf."""
    calls = []

    def counting(H, assigned):
        calls.append(assigned)
        return _assemble(H, assigned)

    monkeypatch.setattr("ramsey3k.extend._assemble", counting)

    def glue(h, task):
        calls.clear()
        out = set(glue_extend(h, task))
        return len(calls), out

    for h in hosts:
        for d in range(1, k + 1):
            for slack in (0, 3, 8):
                task = ExtensionTask(k=k, d=d, e_max=h.edge_count() + d + slack)
                want = glue(h, task)
                for field in NODE_CUTS:
                    off = dataclasses.replace(task, **{field: False})
                    assert glue(h, off) == want, (h, d, slack, field)


def test_node_cuts_end_dead_branches(monkeypatch):
    hosts = list(brute_force_graphs(7, 4, 12).values())
    assert_cuts_end_dead_branches(monkeypatch, hosts, 4)
    # the densest (3,5;9)-members: few sets, so the sample stays small
    dense = [h for h in brute_force_graphs(9, 5, 16).values()
             if h.edge_count() == 16]
    assert_cuts_end_dead_branches(monkeypatch, dense[:2], 5)


@pytest.mark.slow
def test_node_cuts_end_dead_branches_sweep(monkeypatch):
    hosts = list(brute_force_graphs(9, 5, 16).values())
    assert_cuts_end_dead_branches(monkeypatch, hosts[::8], 5)


class TestCanonicalHub:
    def accepted_hubs(self, g, ceilings):
        """Vertices v whose copy of g with v moved last passes the test."""
        accepted = []
        for v in range(g.n):
            perm = list(range(g.n))
            perm[v], perm[-1] = perm[-1], perm[v]
            if _hub_canonical(g.permuted(perm), g.edge_count(),
                              ceilings) is not None:
                accepted.append(v)
        return accepted

    @staticmethod
    def sample(rng):
        # the (3,5;10,<=14) members include vertices that tie on the
        # invariant without sharing an orbit, so the rooted key decides
        graphs = [petersen(), path(7), cycle(8)]
        graphs += brute_force_graphs(10, 5, 14).values()
        graphs += [random_triangle_free(rng.randrange(6, 13), 0.4, rng)
                   for _ in range(40)]
        return graphs

    def test_exactly_one_orbit_accepted(self, rng):
        for g in self.sample(rng):
            # every vertex covered: the ceiling e(G) bounds any e(G) - Z(v)
            ceilings = {g.degree(v): g.edge_count() for v in range(g.n)}
            accepted = self.accepted_hubs(g, ceilings)
            keys = {rooted_key(g, v) for v in accepted}
            assert len(keys) == 1, g
            orbit = [v for v in range(g.n) if rooted_key(g, v) in keys]
            assert accepted == orbit, g

    def test_accepts_the_smallest_invariant_and_key(self, rng):
        """The accepted orbit is pinned, not just unique: among the covered
        vertices, the smallest (deg, Z, sorted neighbour Zs), then the
        smallest rooted key, computed here the slow way."""
        for g in self.sample(rng):
            e = g.edge_count()
            full = {g.degree(v): e for v in range(g.n)}
            # per degree, the first vertex's local edge count: vertices of
            # that degree with a smaller Z, and the top degree, are uncovered
            partial = {}
            for v in range(g.n):
                partial.setdefault(g.degree(v), e - z_value(g, v))
            partial.pop(max(partial))
            for ceilings in (full, partial):
                covered = [v for v in range(g.n) if g.degree(v) in ceilings
                           and e - z_value(g, v) <= ceilings[g.degree(v)]]
                if not covered:
                    continue
                rank = {v: (g.degree(v), z_value(g, v),
                            sorted(z_value(g, u) for u in range(g.n)
                                   if g.has_edge(u, v)),
                            rooted_key(g, v)) for v in covered}
                best = min(rank.values())
                want = [v for v in covered if rank[v] == best]
                accepted = self.accepted_hubs(g, ceilings)
                assert [v for v in accepted if v in rank] == want, g

    def test_orbit_settles_ties(self, monkeypatch):
        """On the vertex-transitive Petersen graph every vertex ties with the
        hub, and the output's own search maps the hub onto each of them: no
        rooted key is computed, and the accepted form is the canonical one."""
        calls = []

        def counting(g, v):
            calls.append(v)
            return rooted_key(g, v)

        monkeypatch.setattr("ramsey3k.extend.rooted_key", counting)
        g = petersen()
        want = canonical_form(g)
        for v in range(g.n):
            perm = list(range(g.n))
            perm[v], perm[-1] = perm[-1], perm[v]
            assert _hub_canonical(g.permuted(perm), g.edge_count(),
                                  {3: g.edge_count()}) == want
        assert calls == []

    def test_uncovered_vertices_do_not_compete(self):
        # the path's ends have the smallest invariant, but with only degree 2
        # covered the canonical degree-2 hubs are the second and second-last
        # vertices
        g = path(6)
        accepted = self.accepted_hubs(g, {2: g.edge_count()})
        assert [v for v in accepted if g.degree(v) == 2] == [1, 4]


@pytest.mark.parametrize("box, leaves, cut_leaves", [
    ((6, 12, 14), 105, 49),
    ((6, 11, 10), 6, 1),
])
def test_outranked_sets_cut_before_descent(monkeypatch, tmp_path, box,
                                           leaves, cut_leaves):
    """The d = 3 row of a certified plan: sets whose hub neighbour is a
    covered vertex of lower degree than the hub are dropped before the
    descent, so fewer leaves are assembled and the outputs stay the same."""
    bs = Bootstrap(str(tmp_path))
    bs.store(*box)
    manifest = JobManifest.read(bs.store_path(*box) + ".manifest")
    task = manifest.task_for(3)
    hosts = list(GraphStore.read(dict(manifest.inputs)[3]).graphs())
    calls = []

    def counting(H, assigned):
        calls.append(assigned)
        return _assemble(H, assigned)

    monkeypatch.setattr("ramsey3k.extend._assemble", counting)

    def glue():
        calls.clear()
        forms = [sorted(glue_extend(h, task)) for h in hosts]
        return len(calls), forms

    assembled, forms = glue()
    assert assembled == cut_leaves
    monkeypatch.setattr("ramsey3k.extend._outranked_sets", lambda *a: 0)
    assert glue() == (leaves, forms)


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
    """Minimum-degree rows glued through run_manifest give the whole class;
    the strict merge checks that each member is glued once."""

    def test_c5_class(self, tmp_path):
        store = min_degree_store(str(tmp_path), 3, 5, 5)
        assert store.complete
        assert list(store.forms()) == [canonical_form(cycle(5))]

    def test_oracle_equivalence_small(self, tmp_path):
        for (k, n, e_max) in [(4, 8, 10), (5, 9, 36), (4, 7, 21)]:
            box = tmp_path / f"c{k}_n{n}_e{e_max}"
            box.mkdir()
            store = min_degree_store(str(box), k, n, e_max)
            assert store.forms() == set(brute_force_graphs(n, k, e_max)), (k, n)

    def test_unachievable_degree_empty(self, tmp_path):
        # R(3,3) = 6: no (3,3;7)-member, so no degree has a row
        store = min_degree_store(str(tmp_path), 3, 7, 9)
        assert store.complete and len(store) == 0
        assert not os.listdir(str(tmp_path / "out.g6.parts"))
        # the empty certified plan is written as a count of zero rows
        manifest = str(tmp_path / "job.manifest")
        assert "plan_rows=0" in read_lines(manifest)
        assert not JobManifest.read(manifest).plan.rows


class TestMaximalTriangleFree:
    def test_examples(self):
        assert is_maximal_triangle_free(cycle(5))
        assert not is_maximal_triangle_free(path(4))
        assert is_maximal_triangle_free(petersen())
        assert find_addable_edge(path(4)) == (0, 3)
        assert find_addable_edge(cycle(5)) is None

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
        with pytest.raises(MembershipError) as err:
            edge_removal_closure([path(4)], 3)
        assert err.value.witness_kind == "addable-edge"
        u, v = err.value.witness
        g = path(4)
        assert not g.has_edge(u, v) and not g.adj[u] & g.adj[v]

