"""Generation engines: neighborhood gluing, minimum-degree reconstruction,
and edge-removal closure from maximal triangle-free inputs.

The gluing engine takes a (3,k)-member H and attaches a new vertex v of
degree d: each neighbor u_i of v is joined to an independent set S_i of H.
The expanded graph is triangle-free by construction (the S_i are
independent and the u_i are pairwise non-adjacent), so the search is only
about keeping the independence number below k+1 while meeting the edge and
degree windows.  Seven prunings cut the recursion and the leaves:

  * pair test      -- S and an assigned S_j force an independent (k+1)-set
                      when the rest of H holds an independent (k-1)-set;
                      the compatibility row of S answers it for every S_j;
  * forbidden      -- vertices whose degree reached the output cap reject
                      every set containing them;
  * ascending      -- sets are assigned in non-decreasing (order, mask)
                      position, which both removes permuted duplicates and
                      makes small sets fail early;
  * edge bound     -- e(H) + d + sum|S_j| + |S|*(d-i) already exceeding the
                      edge cap kills the branch;
  * automorphic    -- an assignment prefix is skipped when one discovered
                      automorphism of H maps it to a smaller sorted index
                      tuple;
  * full union     -- an independent (k-i)-set of H outside all i assigned
                      sets already forces an independent (k+1)-set;
  * canonical      -- a leaf is labelled only when its hub is the canonical
                      vertex among itself and the covered vertices: the
                      smallest (deg, Z, sorted neighbour Zs), where Z(v) is
                      the degree sum of v's neighbours, with ties broken by
                      the smallest rooted key.

A vertex v of an output G is covered by the task's (degree, ceiling) pairs
when deg v has a ceiling and e(G) - Z(v) <= ceiling; in a triangle-free
graph e(G) - Z(v) is the edge count of v's local subgraph.  With inputs
complete up to those ceilings, every covered v is a hub that some input
yields.  The other prunings keep every output up to isomorphism fixing the
hub, so for the canonical covered orbit of G some input produces a copy of
G with its hub in that orbit, and that copy passes the test.  A certified
closure plan gives every output a covered vertex, so each output is kept
from one degree row and one input only.  With an empty cover the rule does
nothing.

Disabling any of the first six must not change the output set of a single
host; disabling the canonical rule must not change the output set of a
certified run.  The test suite holds the engine to both.

Every independence question is "does H minus a union of assigned sets hold
an independent r-set?"  It is answered from the subset table when d >= 2
and H has at most TABLE_MAX_ORDER vertices, and by branch and bound
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

import numpy as np

from .canon import canonical_form, canonical_with_automorphisms, rooted_key
from .graphs import (
    CapacityError,
    ClassParams,
    Graph,
    _alpha,
    bits,
    validate_member,
    z_value,
)
from .indepcache import (
    TABLE_MAX_ORDER,
    build_independence_table,
    independent_sets,
)


@dataclass(frozen=True)
class StructuralRule:
    """Every vertex of subject_degree has exactly required_count neighbors
    of neighbor_degree."""

    subject_degree: int
    neighbor_degree: int
    required_count: int

    def __post_init__(self):
        for d in (self.subject_degree, self.neighbor_degree):
            if not 0 <= d <= 15:
                raise ValueError(f"degree {d} outside 0..15")
        if self.required_count < 0:
            raise ValueError("negative count")

    def holds(self, g: Graph) -> bool:
        degs = [row.bit_count() for row in g.adj]
        for v in range(g.n):
            if degs[v] != self.subject_degree:
                continue
            count = 0
            m = g.adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if degs[u] == self.neighbor_degree:
                    count += 1
            if count != self.required_count:
                return False
        return True


@dataclass(frozen=True)
class ExtensionTask:
    """One gluing unit: extend (3,k)-members by a degree-d hub vertex."""

    k: int                      # input class bound; the target class is k+1
    d: int                      # degree of the new hub vertex
    e_max: int                  # edge cap for outputs
    d_min: int = 0              # minimum degree of outputs
    delta_max: Optional[int] = None   # maximum degree; None means k
    cover: tuple = ()           # (degree, ceiling) pairs of the closure plan
    prune_pair: bool = True
    prune_forbidden: bool = True
    prune_ascending: bool = True
    prune_edge_bound: bool = True
    prune_automorphic: bool = True      # skip prefixes a generator lowers
    prune_union: bool = True            # full-union independence bound
    prune_canonical: bool = True        # hub must be the canonical covered vertex

    def __post_init__(self):
        if not self.d_min <= self.degree_cap <= self.k:
            raise ValueError(
                f"need d_min <= delta_max <= k, got {self.d_min}, "
                f"{self.degree_cap}, {self.k}")
        if self.d < 0 or self.e_max < 0:
            raise ValueError("negative degree or edge cap")

    @property
    def degree_cap(self) -> int:
        return self.k if self.delta_max is None else self.delta_max


def glue_extend(H: Graph, task: ExtensionTask) -> dict:
    """All (3,k+1; m+d+1, <=e_max)-graphs with a degree-d hub whose local
    subgraph is H, up to isomorphism, as {canonical form: Graph}.

    d-regular outputs are asked for by d_min = delta_max = d.
    """
    k = task.k
    d = task.d
    m = H.n
    n_out = m + d + 1
    if n_out > 64:
        raise CapacityError(f"output order {n_out} exceeds 64")
    validate_member(H, k)
    out: dict = {}
    cap = task.degree_cap
    if d < task.d_min or d > cap:
        return out
    e_h = H.edge_count()
    budget = task.e_max - e_h - d
    if budget < 0:
        return out

    adj = H.adj
    full = (1 << m) - 1
    deg0 = [row.bit_count() for row in adj]
    table = None  # built below, once there are sets to assign

    def alpha_ge(mask: int, r: int) -> bool:
        if table is not None and table.band_low <= r <= table.band_high:
            return table.cells[mask] >= r
        return _alpha(adj, mask, r)[0] >= r

    if d == 0:
        _accept(H, (), task, out, alpha_ge, deg0, e_h)
        return out

    lo = max(0, task.d_min - 1)
    hi = min(k - 1, cap - 1, budget)
    if hi < lo:
        return out
    sets = independent_sets(H, lo, hi)
    if not sets:
        return out
    orders = [s.bit_count() for s in sets]
    # the table answers orders k+1-d .. k-1, which is empty below d = 2
    if d >= 2 and m <= TABLE_MAX_ORDER:
        table = build_independence_table(H, k, d)

    # each discovered automorphism of H, as a permutation of the set list;
    # a prefix is skipped when one of them maps it to a smaller sorted index
    # tuple.  If g(P) < P for a prefix P of the ascending tuple A, then
    # g(A) < A, so the smallest tuple of each orbit is never cut.
    set_perms: list = []
    if task.prune_automorphic:
        set_index = {mask: i for i, mask in enumerate(sets)}
        for sigma in canonical_with_automorphisms(H)[1]:
            set_perms.append([set_index[_image(mask, sigma)] for mask in sets])

    def prefix_minimal(prefix: tuple) -> bool:
        """No single generator maps the prefix to a smaller index tuple."""
        for perm in set_perms:
            if tuple(sorted([perm[j] for j in prefix])) < prefix:
                return False
        return True

    # set lists are bitmasks over set indices; contains[w]: the sets with w
    contains = [sum(1 << i for i, s in enumerate(sets) if s >> w & 1)
                for w in range(m)]

    # compat[a]: the sets b that pass the pair test with a; built on first use
    compat: list = [None] * len(sets)
    set_array = np.array(sets, dtype=np.int64)

    def compat_row(a: int) -> int:
        row = compat[a]
        if row is None:
            if table is not None:
                cells = np.frombuffer(table.cells, dtype=np.uint8)
                ok = cells[full & ~(set_array | sets[a])] < k - 1
                row = int.from_bytes(
                    np.packbits(ok, bitorder="little").tobytes(), "little")
            else:  # ascending assignment reads no bit below a; those stay 0
                first = a if task.prune_ascending else 0
                row = sum(1 << b for b in range(first, len(sets))
                          if not alpha_ge(full & ~(sets[a] | sets[b]), k - 1))
            compat[a] = row
        return row

    assigned: list = []

    def descend(eligible: int, prefix: tuple, union: int, degs: list,
                forb_sets: int, size_sum: int):
        i = len(assigned)
        if i == d:
            _accept(H, assigned, task, out, alpha_ge, degs, e_h + d + size_sum)
            return
        remaining = d - i
        scan = eligible  # the upward scan visits sets in (order, mask) order
        while scan:
            low = scan & -scan
            scan ^= low
            idx = low.bit_length() - 1
            s = sets[idx]
            sz = orders[idx]
            if task.prune_edge_bound:
                low_order = sz if task.prune_ascending else lo
                if e_h + d + size_sum + sz + low_order * (remaining - 1) > task.e_max:
                    if task.prune_ascending:
                        break  # eligible is (order, mask)-sorted: no smaller set follows
                    continue
            new_union = union | s
            if task.prune_union and i >= 1:
                # an independent (k-i)-set outside all assigned sets joins
                # the i+1 hub neighbors into an independent (k+1)-set
                if alpha_ge(full & ~new_union, k - i):
                    continue
            new_degs = degs[:]
            mm = s
            dead = False
            new_forb = forb_sets
            while mm:
                w = (mm & -mm).bit_length() - 1
                mm &= mm - 1
                nd = new_degs[w] + 1
                if nd > cap:
                    dead = True
                    break
                new_degs[w] = nd
                if nd == cap:
                    new_forb |= contains[w]
            if dead:
                continue
            new_prefix = tuple(sorted(prefix + (idx,)))
            if not prefix_minimal(new_prefix):
                continue
            # the next neighbor may reuse this set, so the child list keeps
            # the current position when assigning in ascending order
            child = eligible >> idx << idx if task.prune_ascending else eligible
            # the last neighbor leads straight to the leaf test: no filtering
            if remaining > 1:
                if task.prune_forbidden:
                    child &= ~new_forb
                if task.prune_pair:
                    child &= compat_row(idx)
                if not child:
                    continue  # no eligible sets left for the other neighbors
            assigned.append(s)
            descend(child, new_prefix, new_union, new_degs, new_forb,
                    size_sum + sz)
            assigned.pop()

    at_cap = sum(1 << w for w in range(m) if deg0[w] >= cap)
    forb0 = sum(1 << i for i, s in enumerate(sets) if s & at_cap)
    root = ((1 << len(sets)) - 1) & ~(forb0 if task.prune_forbidden else 0)
    descend(root, (), 0, deg0, forb0, 0)
    # descend refers to itself through its closure cell; breaking that cycle
    # frees the sets, rows and table now instead of at the next collection
    del descend
    return out


def _image(mask: int, sigma) -> int:
    """The vertex set mask mapped through the permutation sigma."""
    img = 0
    while mask:
        w = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        img |= 1 << sigma[w]
    return img


def _assemble(H: Graph, assigned) -> Graph:
    m = H.n
    d = len(assigned)
    v = m + d
    adj = list(H.adj) + [0] * (d + 1)
    for j, s in enumerate(assigned):
        u = m + j
        adj[u] = s | 1 << v
        adj[v] |= 1 << u
        mm = s
        while mm:
            w = (mm & -mm).bit_length() - 1
            mm &= mm - 1
            adj[w] |= 1 << u
    return Graph._make(m + d + 1, tuple(adj))


def _accept(H: Graph, assigned, task: ExtensionTask, out: dict,
            alpha_ge: Callable[[int, int], bool], h_degs: list,
            e_total: int) -> None:
    """Leaf test: degree window, edge cap, independence bound.

    An independent (k+1)-set of the output misses the hub (H has none of
    order k), so it is |T| hub neighbors plus a (k+1-|T|)-set of H avoiding
    their sets; |T| <= 1 is ruled out by alpha(H) < k, and pairs were
    already vetted during the descent when the pair test is on.
    """
    cap = task.degree_cap
    if e_total > task.e_max:
        return
    for w in range(H.n):
        dw = h_degs[w]
        if dw < task.d_min or dw > cap:
            return
    full = (1 << H.n) - 1
    lo_t = 3 if task.prune_pair else 2
    # unions over all subsets T of the assigned sets
    masks = [0]
    sizes = [0]
    for s in assigned:
        for x in range(len(masks)):
            masks.append(masks[x] | s)
            sizes.append(sizes[x] + 1)
    for mask, t in zip(masks, sizes):
        if t >= lo_t and alpha_ge(full & ~mask, task.k + 1 - t):
            return
    g = _assemble(H, assigned)
    if task.prune_canonical and task.cover and \
            not _hub_canonical(g, e_total, dict(task.cover)):
        return
    out.setdefault(canonical_form(g), g)


def _hub_canonical(g: Graph, e_total: int, ceilings: dict) -> bool:
    """Whether the hub (the last vertex) is the canonical vertex among itself
    and the covered vertices: smallest (deg, Z, sorted neighbour Zs), ties
    broken by the smallest rooted key.

    A vertex w is covered when its degree has a ceiling and e(G) - Z(w), the
    edge count of its local subgraph, is at most that ceiling.
    """
    adj = g.adj
    hub = g.n - 1

    def neighbour_zs(v: int) -> list:
        return sorted(z_value(g, u) for u in bits(adj[v]))

    # the cheap (deg, Z) comparison runs first; the neighbour Zs and the
    # rooted keys only break its ties
    hub_inv = (adj[hub].bit_count(), z_value(g, hub))
    hub_nz = None
    rivals = []
    for w in range(hub):
        dw = adj[w].bit_count()
        if dw > hub_inv[0]:
            continue
        ceiling = ceilings.get(dw)
        if ceiling is None:
            continue
        zw = z_value(g, w)
        if e_total - zw > ceiling or (dw, zw) > hub_inv:
            continue
        if (dw, zw) < hub_inv:
            return False
        if hub_nz is None:
            hub_nz = neighbour_zs(hub)
        nz = neighbour_zs(w)
        if nz < hub_nz:
            return False
        if nz == hub_nz:
            rivals.append(w)
    if not rivals:
        return True
    key = rooted_key(g, hub)
    return all(key <= rooted_key(g, w) for w in rivals)


def min_degree_extend(
    target: ClassParams,
    d_min_assumed: int,
    inputs: Iterable[Graph],
    e_max: Optional[int] = None,
) -> dict:
    """All target-class graphs with minimum degree exactly d_min_assumed,
    as {canonical form: Graph}.

    ``inputs`` must contain every (3, k-1; n-d-1, <= e_max - d^2)-graph; a
    minimum-degree-d vertex has neighbors of degree >= d, so its local
    subgraph loses at least d^2 edges.
    """
    d = d_min_assumed
    k_in = target.k - 1
    cap = target.e if e_max is None else e_max
    if d > k_in:
        return {}
    # a degree-d vertex of a minimum-degree-d output has Z >= d*d, so every
    # one of them is covered by the inputs
    task = ExtensionTask(k=k_in, d=d, e_max=cap, d_min=d,
                         cover=((d, cap - d * d),))
    out: dict = {}
    for h in inputs:
        if h.n != target.n - d - 1:
            raise ValueError(
                f"input order {h.n} incompatible with target n={target.n}, d={d}")
        for form, g in glue_extend(h, task).items():
            out.setdefault(form, g)
    return out


# ---------------------------------------------------------------------------
# Maximal triangle-free inputs and edge removal
# ---------------------------------------------------------------------------

def is_maximal_triangle_free(g: Graph) -> bool:
    """No edge can be added without creating a triangle."""
    adj = g.adj
    for v in range(g.n):
        for u in range(v + 1, g.n):
            if not adj[v] >> u & 1 and not adj[v] & adj[u]:
                return False
    return True


def edge_removal_closure(
    mtf_graphs: Iterable[Graph],
    k: int,
    e_floor: Optional[int] = None,
) -> dict:
    """Downward closure of the inputs under single-edge deletion inside the
    (3,k) class, keeping edge counts >= e_floor; {canonical form: Graph}.

    Complete input sets of maximal triangle-free members make the result
    the complete class at that order.
    """
    floor = 0 if e_floor is None else e_floor
    seen: dict = {}
    frontier = []
    for g in mtf_graphs:
        validate_member(g, k)
        if not is_maximal_triangle_free(g):
            raise ValueError("input graph is not maximal triangle-free")
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


def structural_filter(graphs: Iterable[Graph], rules: Iterable[StructuralRule]) -> list:
    rules = list(rules)
    return [g for g in graphs if all(rule.holds(g) for rule in rules)]
