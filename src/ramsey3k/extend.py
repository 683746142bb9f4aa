"""Generation engines: neighborhood gluing, and edge-removal closure from
maximal triangle-free inputs.

The gluing engine takes a (3,k)-member H and attaches a new vertex v of
degree d: each neighbor u_i of v is joined to an independent set S_i of H.
The expanded graph is triangle-free by construction (the S_i are
independent and the u_i are pairwise non-adjacent), so the search is only
about keeping the independence number below k+1 and the edge count within
its cap.  Every degree of an output stays at most k, since each
neighbourhood of a (3,k+1)-graph is independent.  No degree is tracked:
a vertex w of H whose sets push it past k (c >= 2 of them, as deg_H(w)
< k) forms an independent (k+1)-set with its H-neighbours and those c
hub neighbours, which the pair test (c = 2) or the leaf's union test
rejects.  Six prunings cut the recursion and the leaves:

  * pair test      -- S and an assigned S_j force an independent (k+1)-set
                      when the rest of H holds an independent (k-1)-set;
                      the compatibility row of S answers it for every S_j;
  * ascending      -- sets are assigned in non-decreasing (order, mask)
                      position, which both removes permuted duplicates and
                      makes small sets fail early;
  * edge bound     -- a node scans only sets of order <= (budget - used) /
                      (d - i), or <= budget - used with ascending order off,
                      where budget = e_max - e(H) - d and used = sum|S_j|;
  * automorphic    -- an assignment prefix is skipped when one discovered
                      automorphism of H maps it to a smaller sorted index
                      tuple;
  * full union     -- an independent (k-i)-set of H outside all i assigned
                      sets already forces an independent (k+1)-set;
  * canonical      -- a leaf is kept only when its hub is the canonical
                      vertex among itself and the covered vertices: the
                      smallest (deg, Z, sorted neighbour Zs), where Z(v) is
                      the degree sum of v's neighbours, with ties broken by
                      the smallest rooted key.  A tie is settled by the
                      search that labels the output: a rival its generators
                      map the hub to shares the hub's rooted key, so only
                      the hub and the rivals outside that orbit are keyed.
                      Before the descent, a set S is dropped when its hub
                      neighbour is always covered and of lower degree than
                      the hub: |S| + 1 < d and e_max - d - sum over w in S
                      of (deg_H(w) + 1) is within the ceiling of degree
                      |S| + 1, that sum being a floor on the neighbour's Z.

A vertex v of an output G is covered by the task's (degree, ceiling) pairs
when deg v has a ceiling and e(G) - Z(v) <= ceiling; in a triangle-free
graph e(G) - Z(v) is the edge count of v's local subgraph.  With inputs
complete up to those ceilings, every covered v is a hub that some input
yields.  The other prunings keep every output up to isomorphism fixing the
hub, so for the canonical covered orbit of G some input produces a copy of
G with its hub in that orbit, and that copy passes the test.  A hub that
is not covered is never canonical, so its host yields nothing.  A
certified closure plan gives every output a covered vertex, so each output
is kept from one degree row and one input only; ``run_manifest`` checks
this when it merges the parts, and raises on a repeated output.  With an
empty cover the rule does nothing.

Disabling any of the first five must not change the output set of a single
host; disabling the canonical rule must not change the output set of a
certified run.  The test suite holds the engine to both.

Every union question is "does H minus a union of assigned sets hold an
independent r-set?"  It is answered from the subset table when d >= 2 and
H has at most TABLE_MAX_ORDER vertices, and by branch and bound otherwise.
The pair test needs no table: two sets fail it exactly when an independent
(k-1)-set of H misses both, so a set's compatibility row is every set but
those missed by an independent (k-1)-set that misses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Optional

from .canon import (
    _orbit_reaches,
    canonical_form,
    canonical_with_automorphisms,
    rooted_key,
)
from .graphs import (
    CapacityError,
    Graph,
    MembershipError,
    _alpha,
    bits,
    find_addable_edge,
    image,
    validate_member,
)
from .indepcache import (
    TABLE_MAX_ORDER,
    build_independence_table,
    independent_sets,
)


@dataclass(frozen=True)
class ExtensionTask:
    """One gluing unit: extend (3,k)-members by a degree-d hub vertex,
    0 <= d <= k, into (3,k+1)-graphs with at most e_max edges."""

    k: int                      # input class bound; the target class is k+1
    d: int                      # degree of the new hub vertex
    e_max: int                  # edge cap for outputs
    cover: tuple = ()           # (degree, ceiling) pairs of the closure plan
    prune_pair: bool = True
    prune_ascending: bool = True
    prune_edge_bound: bool = True
    prune_automorphic: bool = True      # skip prefixes a generator lowers
    prune_union: bool = True            # full-union independence bound
    prune_canonical: bool = True        # hub must be the canonical covered vertex

    def __post_init__(self):
        if not 0 <= self.d <= self.k:
            raise ValueError(f"hub degree {self.d} outside 0..{self.k}")
        if self.e_max < 0:
            raise ValueError("negative edge cap")

    @property
    def canonical_rule(self) -> bool:
        """Whether canonical-hub acceptance is active: on, with a cover."""
        return self.prune_canonical and bool(self.cover)


def glue_extend(H: Graph, task: ExtensionTask) -> dict:
    """All (3,k+1; m+d+1, <=e_max)-graphs with a degree-d hub whose local
    subgraph is H, up to isomorphism, as {canonical form: Graph}.

    Each hub neighbour is joined to an independent set of H of order at
    most k-1; a vertex of H is in at most k - deg_H(w) of them.
    """
    k = task.k
    d = task.d
    m = H.n
    n_out = m + d + 1
    if n_out > 64:
        raise CapacityError(f"output order {n_out} exceeds 64")
    validate_member(H, k)
    out: dict = {}
    e_h = H.edge_count()
    ceilings = dict(task.cover)
    # the hub's local subgraph is H: uncovered when d has no ceiling (-1)
    if task.canonical_rule and e_h > ceilings.get(d, -1):
        return out
    budget = task.e_max - e_h - d
    if budget < 0:
        return out

    adj = H.adj
    full = (1 << m) - 1
    table = None  # built below; orders up to k-1, the largest asked

    def alpha_ge(mask: int, r: int) -> bool:
        if table is not None:
            return table[r][mask >> 3] >> (mask & 7) & 1 == 1
        return _alpha(adj, mask, r)[0] >= r

    lo_t = 3 if task.prune_pair else 2
    hi_t = d - 1 if task.prune_union else d

    def accept(assigned, e_total: int) -> None:
        """Leaf test: edge cap, independence bound, then the canonical
        rule, whose labelling search gives the output's form.  Degrees need
        no test: a vertex pushed past k closes an independent (k+1)-set (see
        the module docstring) that the pair test or the unions below reject.

        An independent (k+1)-set of the output misses the hub (H has none of
        order k), so it is |T| hub neighbors plus a (k+1-|T|)-set of H
        avoiding their sets; |T| <= 1 is ruled out by alpha(H) < k, pairs
        were already vetted during the descent when the pair test is on, and
        |T| = d by the last pick's full-union test when that is on.
        """
        if e_total > task.e_max:
            return
        if lo_t <= hi_t:
            # unions over all subsets T of the assigned sets
            masks = [0]
            sizes = [0]
            for s in assigned:
                for x in range(len(masks)):
                    masks.append(masks[x] | s)
                    sizes.append(sizes[x] + 1)
            for mask, t in zip(masks, sizes):
                if lo_t <= t <= hi_t and alpha_ge(full & ~mask, k + 1 - t):
                    return
        g = _assemble(H, assigned)
        if task.canonical_rule:
            form = _hub_canonical(g, e_total, ceilings)
            if form is None:
                return
        else:
            form = canonical_form(g)
        out.setdefault(form, g)

    if d == 0:
        accept((), e_h)
        return out

    hi = min(k - 1, budget)
    sets = independent_sets(H, hi)  # the empty set at least
    orders = [s.bit_count() for s in sets]
    # upto[c]: the sets of order <= c, a prefix of the sorted list; every
    # order up to the top occurs, since independence is closed under subsets
    top = orders[-1]
    upto = [0] * (top + 1)
    for idx, sz in enumerate(orders):
        upto[sz] = (2 << idx) - 1
    # a degree-1 hub asks no independence question
    if d >= 2 and m <= TABLE_MAX_ORDER:
        table = build_independence_table(H, k)

    # each discovered automorphism of H, as a permutation of the set list;
    # a prefix is skipped when one of them maps it to a smaller sorted index
    # tuple.  If g(P) < P for a prefix P of the ascending tuple A, then
    # g(A) < A, so the smallest tuple of each orbit is never cut.
    set_perms: list = []
    if task.prune_automorphic:
        set_index = {mask: i for i, mask in enumerate(sets)}
        for sigma in canonical_with_automorphisms(H)[1]:
            set_perms.append([set_index[image(mask, sigma)] for mask in sets])

    def prefix_minimal(prefix: tuple) -> bool:
        """No single generator maps the prefix to a smaller index tuple."""
        for perm in set_perms:
            if tuple(sorted([perm[j] for j in prefix])) < prefix:
                return False
        return True

    # only a pick with two or more neighbours still to come reads a row
    compat_row = (_pair_rows(H, sets, k, hi == k - 1)
                  if d >= 2 and task.prune_pair else None)

    def descend(eligible: int, prefix: tuple, union: int, size_sum: int):
        i = len(prefix)
        if i == d:
            # prefix is sorted, so with ascending order off the hub
            # neighbours come relabelled; the leaf test and form ignore that
            accept([sets[j] for j in prefix], e_h + d + size_sum)
            return
        remaining = d - i
        # the scan visits sets in (order, mask) order
        scan = eligible
        if task.prune_edge_bound:
            # ascending order makes every later pick at least as large as
            # this one; a small pick raises the next cap, so child keeps all.
            # cap >= 0: every pick so far fits, and budget >= 0
            cap = (budget - size_sum) // (remaining if task.prune_ascending else 1)
            scan &= upto[min(cap, top)]
        while scan:
            low = scan & -scan
            scan ^= low
            idx = low.bit_length() - 1
            new_union = union | sets[idx]
            if task.prune_union and i >= 1:
                # an independent (k-i)-set outside all assigned sets joins
                # the i+1 hub neighbors into an independent (k+1)-set
                if alpha_ge(full & ~new_union, k - i):
                    continue
            new_prefix = tuple(sorted(prefix + (idx,)))
            if not prefix_minimal(new_prefix):
                continue
            # the next neighbor may reuse this set, so the child list keeps
            # the current position when assigning in ascending order
            child = eligible >> idx << idx if task.prune_ascending else eligible
            # the last neighbor leads straight to the leaf test: no filtering
            if remaining > 1:
                if task.prune_pair:
                    child &= compat_row(idx)
                if not child:
                    continue  # no eligible sets left for the other neighbors
            descend(child, new_prefix, new_union, size_sum + orders[idx])

    eligible = (1 << len(sets)) - 1
    if task.canonical_rule:
        # an Aut(H)-invariant cut, so each orbit's smallest tuple stays
        eligible &= ~_outranked_sets(H, sets, d, task.e_max, ceilings)
    descend(eligible, (), 0, 0)
    # descend refers to itself through its closure cell; breaking that cycle
    # frees the sets, rows and table now instead of at the next collection
    del descend
    return out


def _pair_rows(H: Graph, sets: list, k: int, complete: bool):
    """compat_row(a): the mask of the sets b that pass the pair test with
    set a, alpha(H - (S_a | S_b)) < k-1, each row built on first use.

    The test fails exactly when an independent (k-1)-set I of H misses both
    sets, so a row is every set but those missed by an I that misses S_a.
    Each I is found in sets when complete (sets reach order k-1), else
    enumerated.
    """
    contains = [0] * H.n  # contains[w]: the sets holding w
    for idx, s in enumerate(sets):
        for w in bits(s):
            contains[w] |= 1 << idx
    every = (1 << len(sets)) - 1
    # missed[j]: the sets disjoint from the j-th I; byte j of holds[w] is 1
    # when that I holds vertex w, and byte j of ones is 1
    missed = []
    holds = [0] * H.n
    for wide in (sets if complete else independent_sets(H, k - 1)):
        if wide.bit_count() == k - 1:
            byte = 1 << 8 * len(missed)
            hit = 0
            for w in bits(wide):
                hit |= contains[w]
                holds[w] |= byte
            missed.append(every & ~hit)
    ones = int.from_bytes(b"\x01" * len(missed), "little")
    rows: list = [None] * len(sets)

    def compat_row(a: int) -> int:
        row = rows[a]
        if row is None:
            held = 0
            for w in bits(sets[a]):
                held |= holds[w]
            # one byte per I, 1 when the I misses S_a
            chosen = (ones ^ held).to_bytes(len(missed), "little")
            row = rows[a] = every & ~reduce(or_, compress(missed, chosen), 0)
        return row

    return compat_row


def _assemble(H: Graph, assigned) -> Graph:
    m = H.n
    d = len(assigned)
    v = m + d
    adj = list(H.adj) + [0] * (d + 1)
    for j, s in enumerate(assigned):
        u = m + j
        adj[u] = s | 1 << v
        adj[v] |= 1 << u
        for w in bits(s):
            adj[w] |= 1 << u
    return Graph._make(m + d + 1, tuple(adj))


def _outranked_sets(H: Graph, sets, d: int, e_max: int, ceilings: dict) -> int:
    """Mask of the sets S whose hub neighbour u outranks the hub at every
    leaf holding S: deg u = |S| + 1 < d, and u is covered, as Z(u) is at
    least d + sum over w in S of (deg_H(w) + 1) (each w also gains u) and
    e(G) <= e_max.  Sets come in order of size, so the scan stops at the
    first set of size d - 1."""
    deg = [row.bit_count() for row in H.adj]
    dropped = 0
    for idx, s in enumerate(sets):
        size = s.bit_count()
        if size + 1 >= d:
            break
        # uncovered when degree size + 1 has no ceiling (-1)
        z_floor = d + size + sum([deg[w] for w in bits(s)])
        if e_max - z_floor <= ceilings.get(size + 1, -1):
            dropped |= 1 << idx
    return dropped


def _hub_canonical(g: Graph, e_total: int, ceilings: dict) -> Optional[str]:
    """g's canonical form when the hub (the last vertex) is the canonical
    vertex among itself and the covered vertices, else None: the smallest
    (deg, Z, sorted neighbour Zs), ties broken by the smallest rooted key.

    A vertex w is covered when its degree has a ceiling and e(G) - Z(w), the
    edge count of its local subgraph, is at most that ceiling.  A tie is
    settled from g's own labelling search: a rival that its generators
    reach from the hub lies in the hub's orbit and shares its rooted key,
    so only the hub and the rivals outside that orbit are keyed.
    """
    adj = g.adj
    hub = g.n - 1
    deg = [row.bit_count() for row in adj]
    # Z of every vertex in one bit loop: built from per-row neighbour lists
    # it cost a cold census about 15 % more CPU, as most leaves fail early
    z = []
    for row in adj:
        total = 0
        while row:
            low = row & -row
            total += deg[low.bit_length() - 1]
            row ^= low
        z.append(total)

    def invariant(v: int) -> tuple:
        return (deg[v], z[v], sorted([z[u] for u in bits(adj[v])]))

    # the cheap (deg, Z) comparison runs first; the neighbour Zs and the
    # rooted keys only break its ties
    hub_inv = invariant(hub)
    rivals = []
    for w in range(hub):
        # uncovered when deg[w] has no ceiling (-1)
        if e_total - z[w] > ceilings.get(deg[w], -1) \
                or (deg[w], z[w]) > hub_inv[:2]:
            continue
        inv = invariant(w)
        if inv < hub_inv:
            return None
        if inv == hub_inv:
            rivals.append(w)
    if not rivals:
        return canonical_form(g)
    form, gens = canonical_with_automorphisms(g)
    others = [w for w in rivals if not _orbit_reaches(gens, (), hub, {w})]
    if others:
        key = rooted_key(g, hub)
        if any(rooted_key(g, w) < key for w in others):
            return None
    return form


# ---------------------------------------------------------------------------
# Maximal triangle-free inputs and edge removal
# ---------------------------------------------------------------------------

def edge_removal_closure(
    mtf_graphs: Iterable[Graph],
    k: int,
    e_floor: Optional[int] = None,
) -> dict:
    """Downward closure of the inputs under single-edge deletion inside the
    (3,k) class, keeping edge counts >= e_floor; {canonical form: Graph}.

    Complete input sets of maximal triangle-free members make the result
    the complete class at that order.  A negative floor raises ValueError.
    """
    floor = 0 if e_floor is None else e_floor
    if floor < 0:
        raise ValueError(f"negative edge floor {floor}")
    seen: dict = {}
    frontier = []
    for g in mtf_graphs:
        validate_member(g, k)
        pair = find_addable_edge(g)
        if pair is not None:
            raise MembershipError(f"addable edge {pair}", "addable-edge", pair)
        if g.edge_count() < floor:
            continue
        form = canonical_form(g)
        if form not in seen:
            seen[form] = g
            frontier.append(g)
    while frontier:
        g = frontier.pop()
        if g.edge_count() - 1 < floor:
            continue
        for (u, v) in list(g.edges()):
            h = g.remove_edge(u, v)
            if _alpha(h.adj, (1 << h.n) - 1, k)[0] >= k:
                continue
            form = canonical_form(h)
            if form not in seen:
                seen[form] = h
                frontier.append(h)
    return seen
