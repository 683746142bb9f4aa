"""Canonical labelling by partition refinement and individualization.

The canonical form of a graph is the graph6 encoding of a canonically
relabelled copy, so equal forms mean isomorphic graphs (at equal order) and
the form doubles as a stable sort key for graph stores.

The search refines an equitable partition (a vertex's signature is the sum
of its neighbours' cell weights, see :func:`_refine`), branches on the
first smallest non-singleton cell, and keeps the smallest relabelled
adjacency over all leaves; a leaf key packs that adjacency into one int,
row 0 in the highest bits, and the best key is the canonical graph itself.
Two prunings keep symmetric inputs cheap: candidates that are twins of an
already-explored sibling are skipped, and automorphisms discovered from
equal-key leaves are replayed to skip orbit mates (only generators fixing
the current individualization prefix are used, which keeps the pruning
exact).

A rooted search puts one vertex in its own first cell, so its best leaf
key labels the graph with that vertex as a colour: two roots get equal keys
exactly when an automorphism maps one to the other.

An :class:`IsoIndex` answers "is g isomorphic to a reference graph?" from
the references' canonical forms.  Equal leaf keys mean isomorphic graphs,
so g's first leaf key among the references' best keys proves membership;
on a miss g's best key decides, since it equals a reference's exactly when
g is isomorphic to it.
"""

from __future__ import annotations

from .graphs import Graph, bits, decode_graph6, encode_graph6

_MAX_GENERATORS = 60


def _refine(nbrs, cells, weight):
    """Equitable refinement: split cells by neighbour counts until stable.

    A signature packs a vertex's neighbour count in each cell, 7 bits a
    cell, the first cell highest, as the sum of its neighbours' weights: a
    vertex of cell i of C weighs 1 << 7*(C-1-i).  Counts stay below 128 at
    n <= 64, so no field carries.  ``weight`` is scratch, a slot a vertex."""
    cells = list(cells)
    while True:
        shift = 7 * len(cells)
        for c in cells:
            shift -= 7
            w = 1 << shift
            for v in c:
                weight[v] = w
        for ci, cell in enumerate(cells):
            if len(cell) == 1:
                continue
            groups = {}
            for v in cell:
                sig = 0
                for u in nbrs[v]:
                    sig += weight[u]
                bucket = groups.get(sig)
                if bucket is None:
                    groups[sig] = [v]
                else:
                    bucket.append(v)
            if len(groups) > 1:
                cells[ci:ci + 1] = [groups[s] for s in sorted(groups)]
                break
        else:
            return cells


def _leaf_key(nbrs, verts):
    """The adjacency relabelled so that verts[i] becomes vertex i, packed
    into one int with row 0 in the highest n bits: ints compare as the row
    tuples would."""
    n = len(verts)
    pos = [0] * len(nbrs)
    for i, v in enumerate(verts):
        pos[v] = i
    key = 0
    for v in verts:
        row = 0
        for u in nbrs[v]:
            row |= 1 << pos[u]
        key = key << n | row
    return key


def _key_graph(n: int, key: int) -> Graph:
    """The graph whose packed adjacency is ``key``."""
    mask = (1 << n) - 1
    return Graph._make(n, tuple(key >> (n * (n - 1 - i)) & mask for i in range(n)))


def _initial_cells(adj, root=None) -> list:
    """Vertices by increasing degree; a given root first, in its own cell."""
    by_degree = {}
    for v in range(len(adj)):
        if v != root:
            by_degree.setdefault(adj[v].bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    if root is not None:
        cells.insert(0, [root])
    return cells


def _target_cell(cells) -> int:
    """Index of the first smallest non-singleton cell, -1 at a leaf."""
    target = -1
    target_len = 1 << 30
    for i, c in enumerate(cells):
        if 1 < len(c) < target_len:
            target = i
            target_len = len(c)
    return target


def _individualize(cells, target, v) -> list:
    """Split v off in front of the rest of its cell."""
    return (cells[:target] + [[v], [u for u in cells[target] if u != v]]
            + cells[target + 1:])


def _first_leaf_key(g: Graph) -> int:
    """Key of the first leaf of g's search tree: each step individualizes
    the smallest vertex of the target cell, as the full search's first
    branch does."""
    adj = g.adj
    nbrs = [bits(m) for m in adj]
    weight = [0] * g.n
    cells = _initial_cells(adj)
    while True:
        cells = _refine(nbrs, cells, weight)
        target = _target_cell(cells)
        if target < 0:
            return _leaf_key(nbrs, [c[0] for c in cells])
        cells = _individualize(cells, target, min(cells[target]))


def _orbit_reaches(gens, fixed, v, tried):
    """True if some product of prefix-fixing generators maps v into tried."""
    useful = [s for s in gens if all(s[x] == x for x in fixed)]
    if not useful:
        return False
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for s in useful:
            y = s[x]
            if y not in seen:
                if y in tried:
                    return True
                seen.add(y)
                stack.append(y)
    return False


def canonical_labeling(g: Graph) -> tuple:
    """Permutation p with p[old] = new position, minimizing the relabelled
    adjacency vector."""
    return _canonical_search(g)[0]


def canonical_with_automorphisms(g: Graph) -> tuple:
    """(canonical form, automorphism generators) from one search: the form
    is :func:`canonical_form`'s, and the generators (s[v] is the image of
    v) are the equal-key leaf permutations and twin swaps the search met;
    they span a (not necessarily full) subgroup of Aut(g)."""
    _, gens, key = _canonical_search(g)
    return encode_graph6(_key_graph(g.n, key)), gens


def rooted_key(g: Graph, v: int) -> int:
    """Canonical key of g with v marked: rooted_key(g, v) == rooted_key(g, w)
    exactly when some automorphism of g maps v to w."""
    return _canonical_search(g, root=v)[2]


def _canonical_search(g: Graph, root=None) -> tuple:
    """(labelling, automorphism generators, best leaf key); a given root
    starts in its own first cell."""
    n = g.n
    adj = g.adj
    nbrs = [bits(m) for m in adj]
    weight = [0] * n
    best = {"key": None, "verts": None}
    gens = []

    def descend(cells, fixed):
        cells = _refine(nbrs, cells, weight)
        target = _target_cell(cells)
        if target < 0:
            verts = [c[0] for c in cells]
            key = _leaf_key(nbrs, verts)
            if best["key"] is None or key < best["key"]:
                best["key"] = key
                best["verts"] = verts
            elif key == best["key"] and len(gens) < _MAX_GENERATORS:
                sigma = [0] * n
                for bv, lv in zip(best["verts"], verts):
                    sigma[bv] = lv
                sigma = tuple(sigma)
                if any(sigma[v] != v for v in range(n)) and sigma not in gens:
                    gens.append(sigma)
            return
        tried = set()
        for v in sorted(cells[target]):
            if tried:
                vrow = adj[v]
                twin = next(
                    (u for u in tried
                     if vrow & ~(1 << u) == (adj[u] & ~(1 << v))), None)
                if twin is not None:
                    # record the twin swap: an automorphism in its own right
                    if len(gens) < _MAX_GENERATORS:
                        sigma = list(range(n))
                        sigma[v], sigma[twin] = twin, v
                        sigma = tuple(sigma)
                        if sigma not in gens:
                            gens.append(sigma)
                    tried.add(v)
                    continue
                if _orbit_reaches(gens, fixed, v, tried):
                    tried.add(v)
                    continue
            descend(_individualize(cells, target, v), fixed + (v,))
            tried.add(v)

    descend(_initial_cells(adj, root), ())
    del descend  # break the closure's self-reference so no cycle outlives the call
    perm = [0] * n
    for i, v in enumerate(best["verts"]):
        perm[v] = i
    return tuple(perm), gens, best["key"]


def canonical_graph(g: Graph) -> Graph:
    return _key_graph(g.n, _canonical_search(g)[2])


def canonical_form(g: Graph) -> str:
    """Canonical graph6 line: equal exactly for isomorphic graphs."""
    return encode_graph6(canonical_graph(g))


class IsoIndex:
    """Membership up to isomorphism in a fixed set of canonical forms.

    A form's packed adjacency is its best leaf key, so the index stores it
    and searches nothing; ``g in index`` tests g's first leaf key and, on a
    miss, its best key (see the module docstring).  A string that is not a
    canonical form can make an isomorphic g a non-member, never the
    reverse."""

    def __init__(self, forms):
        self._keys = {}   # order -> packed adjacencies of the forms
        for form in forms:
            g = decode_graph6(form)
            key = 0   # the identity labelling's leaf key: _key_graph inverted
            for row in g.adj:
                key = key << g.n | row
            self._keys.setdefault(g.n, set()).add(key)

    def __contains__(self, g: Graph) -> bool:
        keys = self._keys.get(g.n)
        return keys is not None and (
            _first_leaf_key(g) in keys or _canonical_search(g)[2] in keys)
