"""Independent ground-truth generators and the consistency-test battery.

Independent of the extension engine, and importing nothing from
:mod:`ramsey3k.extend`: the brute force grows graphs one vertex at a time
with canonical deduplication at every level, and the direct checks
(edge-minimality, add-edge and G_v closure) re-derive properties from the
graphs, with no degree sequence, plan or gluing.  Shared with the engine
are :mod:`ramsey3k.canon` (canonical forms, the automorphism generators
that pick one added edge per orbit, and the
:class:`~ramsey3k.canon.IsoIndex` that tests a G_v or an add-edge graph
against a reference store's forms: one search path per test graph unless
it misses, and :mod:`ramsey3k.canon` says why that is exact),
:func:`ramsey3k.indepcache.independent_sets`, ``graphs._alpha`` and
``graphs.validate_member``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .canon import IsoIndex, canonical_form, canonical_with_automorphisms
from .graphs import (
    CapacityError,
    Graph,
    _alpha,
    addable_edges,
    bits,
    is_maximal_triangle_free,
    local_subgraph,
    validate_member,
    z_value,
)
from .indepcache import independent_sets

ORACLE_CAP = 12


def brute_force_graphs(n: int, k: int, e_max: Optional[int] = None) -> dict:
    """Every (3,k;n,<=e_max)-graph up to isomorphism, {form: Graph}.

    Grown by vertex augmentation: the new vertex's neighborhood must be an
    independent set of order < k, and triangle-freeness, the independence
    bound, and the edge cap all survive vertex deletion, so pruning with
    them keeps the enumeration complete.
    """
    if n > ORACLE_CAP:
        raise CapacityError(f"oracle capped at order {ORACLE_CAP}, asked {n}")
    if k < 2 or n < 0 or (e_max or 0) < 0:
        raise ValueError(f"need k >= 2, n >= 0 and e_max >= 0, "
                         f"got k={k}, n={n}, e_max={e_max}")
    cap = e_max if e_max is not None else n * (n - 1) // 2
    level = {canonical_form(Graph.empty(0)): Graph.empty(0)}
    for _ in range(n):
        nxt: dict = {}
        for g in level.values():
            m = g.n
            # the new vertex's neighborhood is independent and of order
            # at most k-1 (its degree is capped by the independence bound)
            for s in independent_sets(g, min(k - 1, m)):
                if g.edge_count() + s.bit_count() > cap:
                    continue
                child = _attach(g, s)
                if _alpha(child.adj, (1 << child.n) - 1, k)[0] >= k:
                    continue
                form = canonical_form(child)
                if form not in nxt:
                    nxt[form] = child
        level = nxt
    return level


def _attach(g: Graph, neighborhood: int) -> Graph:
    adj = list(g.adj)
    v = g.n
    adj.append(neighborhood)
    for w in bits(neighborhood):
        adj[w] |= 1 << v
    return Graph._make(g.n + 1, tuple(adj))


def min_edge_count(n: int, k: int, probe_cap: Optional[int] = None) -> Optional[int]:
    """Exact e(3,k,n) for oracle-sized n: smallest edge count with a member,
    or None when the class is empty."""
    cap = probe_cap if probe_cap is not None else max(0, (k - 1) * n // 2)
    store = brute_force_graphs(n, k, cap)
    if not store:
        return None
    return min(g.edge_count() for g in store.values())


def naive_mtf_set(n: int, k: int) -> dict:
    """All maximal triangle-free (3,k;n)-graphs, by filtering the oracle."""
    store = brute_force_graphs(n, k, None)
    return {f: g for f, g in store.items() if is_maximal_triangle_free(g)}


def verify_minimality(g: Graph, k: int) -> bool:
    """True when deleting any edge creates an independent set of order k.

    An independent k-set born from deleting edge {a,b} must contain both a
    and b, so it reduces to a (k-2)-set avoiding both neighborhoods.
    """
    validate_member(g, k)
    full = (1 << g.n) - 1
    for (a, b) in g.edges():
        rest = full & ~(g.adj[a] | g.adj[b])
        if _alpha(g.adj, rest, k - 2)[0] < k - 2:
            return False
    return True


def add_edge_closure_check(
    base: Iterable[Graph],
    f: int,
    k: int,
    reference_forms: set,
    n: Optional[int] = None,
) -> bool:
    """Adding up to f edges to base members must stay inside the reference
    set (whenever the result is still a class member); a result isomorphic
    to a base member counts as inside.

    Levels are expanded breadth first.  Each expanded graph adds one edge
    per orbit of its automorphism generators (g + uv is isomorphic to
    g + s(u)s(v)), and only graphs expanded further get a full canonical
    form; the last level is tested against an :class:`IsoIndex`."""
    if f < 1:
        raise ValueError(f"add at least one edge, got f={f}")
    seen: set = set()
    level = []      # (graph, automorphism generators) to expand
    for g in base:
        if n is not None and g.n != n:
            raise ValueError(f"store mismatch: graph of order {g.n}, box has {n}")
        form, gens = canonical_with_automorphisms(g)
        if form not in seen:
            seen.add(form)
            level.append((g, gens))
    index = IsoIndex(reference_forms | seen)
    for depth in range(f):
        expand = depth + 1 < f
        nxt = []
        for g, gens in level:
            for u, v in _addable_orbit_representatives(g, gens):
                h = g.add_edge(u, v)
                if not expand:
                    if h not in index:
                        return False
                    continue
                form, hgens = canonical_with_automorphisms(h)
                if form in seen:
                    continue
                seen.add(form)
                if form not in reference_forms:
                    return False
                nxt.append((h, hgens))
        level = nxt
    return True


def _addable_orbit_representatives(g: Graph, gens) -> list:
    """One pair u < v per orbit, under the group the generators span, of the
    non-edges whose addition closes no triangle."""
    covered: set = set()
    reps = []
    for pair in addable_edges(g):
        if pair in covered:
            continue
        reps.append(pair)
        covered.add(pair)
        stack = [pair]
        while stack:
            a, b = stack.pop()
            for s in gens:
                x, y = s[a], s[b]
                image = (x, y) if x < y else (y, x)
                if image not in covered:
                    covered.add(image)
                    stack.append(image)
    return reps


def gv_consistency_check(
    parents: Iterable[Graph],
    k_parent: int,
    reference_forms: set,
    ref_n: int,
    ref_e_max: Optional[int] = None,
) -> bool:
    """Every local subgraph of every parent landing in the reference box
    must already be known there, tested against an :class:`IsoIndex` of
    the reference forms.

    The parents are (3,k_parent)-graphs, so triangle-free: e(G) - Z(v) is
    the edge count of G_v (in any graph a lower bound of it), and a G_v
    above ``ref_e_max`` is skipped before it is built.  A ``ref_n`` outside
    g.n-k_parent..g.n-1, the orders a G_v can have, raises ValueError."""
    index = IsoIndex(reference_forms)
    for g in parents:
        if not g.n - k_parent <= ref_n < g.n:
            raise ValueError(f"reference order {ref_n} is outside the G_v orders "
                             f"{g.n - k_parent}..{g.n - 1} of a (3,{k_parent})-graph")
        e = g.edge_count()
        for v in range(g.n):
            if g.n - 1 - g.degree(v) != ref_n:
                continue  # its local subgraph cannot land in the box
            if ref_e_max is not None and e - z_value(g, v) > ref_e_max:
                continue
            if local_subgraph(g, v) not in index:
                return False
    return True
