"""Bitset graphs and the basic operations of the (3,k) world.

A graph lives entirely in machine words: vertex set 0..n-1 (n <= 64) and one
adjacency bitmask per vertex.  Everything downstream (independence tests,
extension engines, canonical labelling) works on these masks, so the
representation is deliberately minimal and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

MAX_ORDER = 64


class GraphFormatError(ValueError):
    """Malformed graph6 input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset

    def __reduce__(self):
        # rebuilt from the constructor arguments when a worker process
        # hands the error back
        return type(self), (self.message, self.offset)


class CapacityError(RuntimeError):
    """A request exceeded a hard size cap (order > 64, oracle cap, ...)."""


class MembershipError(ValueError):
    """Graph rejected from a (3,k) class; carries a witness.

    ``witness_kind`` is "triangle", "independent-set" or "addable-edge";
    ``witness`` is a vertex tuple (the triangle), a bitmask of an independent
    set of order >= k, or a non-edge (u, v) whose addition closes no triangle.
    """

    def __init__(self, message: str, witness_kind: str, witness):
        super().__init__(message)
        self.witness_kind = witness_kind
        self.witness = witness

    def __reduce__(self):
        # a worker process hands the error back pickled; without this the
        # pool cannot rebuild it and waits forever
        return type(self), (str(self), self.witness_kind, self.witness)


class Graph:
    """Immutable simple undirected graph on at most 64 vertices."""

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, adj):
        adj = tuple(adj)
        if not 0 <= n <= MAX_ORDER:
            raise CapacityError(f"order {n} outside 0..{MAX_ORDER}")
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for order {n}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has neighbor bits >= order")
            if row >> v & 1:
                raise ValueError(f"vertex {v} is self-adjacent")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency {v}-{u}")
        self.n = n
        self.adj = adj
        self._hash = None

    @classmethod
    def _make(cls, n: int, adj: tuple) -> "Graph":
        # internal fast path: caller guarantees the invariants
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g._hash = None
        return g

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, (0,) * n)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, adj)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple]:
        for v in range(self.n):
            m = self.adj[v] >> (v + 1) << (v + 1)
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                yield (v, u)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def add_edge(self, u: int, v: int) -> "Graph":
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph._make(self.n, tuple(adj))

    def remove_edge(self, u: int, v: int) -> "Graph":
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph._make(self.n, tuple(adj))

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def degree_histogram(self) -> dict:
        hist: dict = {}
        for row in self.adj:
            d = row.bit_count()
            hist[d] = hist.get(d, 0) + 1
        return hist

    def permuted(self, perm) -> "Graph":
        """Relabel: new vertex perm[v] takes the role of old vertex v."""
        adj = [0] * self.n
        for v, row in enumerate(self.adj):
            adj[perm[v]] = image(row, perm)
        return Graph._make(self.n, tuple(adj))

    def induced(self, mask: int) -> "Graph":
        """Subgraph induced by the vertex bitmask, relabelled contiguously
        preserving relative vertex order."""
        verts = bits(mask)
        pos = {v: i for i, v in enumerate(verts)}
        adj = []
        for v in verts:
            row = 0
            m = self.adj[v] & mask
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                row |= 1 << pos[u]
            adj.append(row)
        return Graph._make(len(verts), tuple(adj))

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.adj))
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, e={self.edge_count()})"


def bits(mask: int) -> list:
    """Indices of set bits, ascending."""
    out = []
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def image(mask: int, perm) -> int:
    """The vertex set mask mapped through the permutation perm."""
    img = 0
    while mask:
        w = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        img |= 1 << perm[w]
    return img


@dataclass(frozen=True)
class ClassParams:
    """Parameters (k; n, e) of a triangle-free graph class with alpha < k."""

    k: int
    n: int
    e: int

    def __post_init__(self):
        if self.k < 1 or self.n < 0:
            raise ValueError(f"bad class parameters {self}")
        if not 0 <= self.e <= self.n * (self.n - 1) // 2:
            raise ValueError(f"edge count {self.e} impossible on {self.n} vertices")


# ---------------------------------------------------------------------------
# graph6 interchange format
# ---------------------------------------------------------------------------

def decode_graph6(text: str) -> Graph:
    """Decode a single graph6 line (order <= 64)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 string", 0)
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise GraphFormatError("non-ascii byte", exc.start) from None
    pos = 0
    c = data[pos]
    if c == 126:  # '~' long-form order
        if len(data) < 4:
            raise GraphFormatError("truncated long-form order", pos)
        if data[1] == 126:
            raise GraphFormatError("order beyond 64 not supported", 1)
        n = 0
        for i in range(1, 4):
            b = data[i] - 63
            if not 0 <= b < 64:
                raise GraphFormatError(f"bad order byte {data[i]}", i)
            n = n << 6 | b
        pos = 4
    else:
        n = c - 63
        if not 0 <= n < 63:
            raise GraphFormatError(f"bad order byte {c}", 0)
        pos = 1
    if n > MAX_ORDER:
        raise GraphFormatError(f"order {n} exceeds cap {MAX_ORDER}", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise GraphFormatError(
            f"expected {nbytes} payload bytes, got {len(data) - pos}", pos)
    bitstream = 0
    for i in range(nbytes):
        b = data[pos + i] - 63
        if not 0 <= b < 64:
            raise GraphFormatError(f"bad payload byte {data[pos + i]}", pos + i)
        bitstream = bitstream << 6 | b
    pad = 6 * nbytes - nbits
    if bitstream & ((1 << pad) - 1):
        raise GraphFormatError("nonzero padding bits", pos + nbytes - 1)
    bitstream >>= pad
    adj = [0] * n
    # column order: (0,1), (0,2), (1,2), (0,3), ...
    shift = nbits
    for col in range(1, n):
        for row in range(col):
            shift -= 1
            if bitstream >> shift & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
    return Graph._make(n, tuple(adj))


# set bits of each payload byte's 6-bit value (byte - 63)
_PAYLOAD_BITS = bytes((b - 63).bit_count() if 63 <= b < 127 else 0
                      for b in range(256))


def graph6_edge_count(text: str) -> int:
    """Edge count of a well-formed graph6 line: the set bits of its payload,
    after the one-byte or the four-byte ('~') order header."""
    data = text.encode("ascii")
    return sum(data[4 if data[:1] == b"~" else 1:].translate(_PAYLOAD_BITS))


def encode_graph6(g: Graph) -> str:
    """Encode to a one-line graph6 string (no trailing newline)."""
    n = g.n
    if n > MAX_ORDER:
        raise CapacityError(f"order {n} exceeds cap {MAX_ORDER}")
    out = bytearray()
    if n < 63:
        out.append(n + 63)
    else:
        out.append(126)
        out.extend((63 + (n >> 12 & 63), 63 + (n >> 6 & 63), 63 + (n & 63)))
    nbits = n * (n - 1) // 2
    bitstream = 0
    for col in range(1, n):
        row_bits = g.adj[col] & ((1 << col) - 1)
        for row in range(col):
            bitstream = bitstream << 1 | (row_bits >> row & 1)
    pad = (6 - nbits % 6) % 6
    bitstream <<= pad
    for i in range(((nbits + 5) // 6) - 1, -1, -1):
        out.append(63 + (bitstream >> 6 * i & 63))
    return out.decode("ascii")


# ---------------------------------------------------------------------------
# Predicates and invariants
# ---------------------------------------------------------------------------

def find_triangle(g: Graph) -> Optional[tuple]:
    """Some triangle (u, v, w), or None."""
    adj = g.adj
    for v in range(g.n):
        m = adj[v] >> (v + 1) << (v + 1)
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            common = adj[v] & adj[u]
            if common:
                w = (common & -common).bit_length() - 1
                return (v, u, w)
    return None


def is_triangle_free(g: Graph) -> bool:
    return find_triangle(g) is None


def addable_edges(g: Graph) -> Iterator[tuple]:
    """The non-edges (u, v), u < v, that close no triangle, in order."""
    adj = g.adj
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not adj[u] >> v & 1 and not adj[u] & adj[v]:
                yield (u, v)


def find_addable_edge(g: Graph) -> Optional[tuple]:
    """The first non-edge (u, v), u < v, that closes no triangle, or None."""
    return next(addable_edges(g), None)


def is_maximal_triangle_free(g: Graph) -> bool:
    """No edge can be added without creating a triangle."""
    return find_addable_edge(g) is None


def independence_number(g: Graph, stop_at: Optional[int] = None) -> int:
    """alpha(g) by branch and bound on bitsets.

    With ``stop_at`` the search may return early with any value >= stop_at
    once an independent set that large is found.
    """
    return _alpha(g.adj, (1 << g.n) - 1, stop_at)[0]


def _alpha(adj, full: int, stop_at: Optional[int]):
    """Return (alpha-or-early-exit-value, witness bitmask)."""
    best = 0
    best_set = 0
    # iterative DFS with explicit stack: (candidates, chosen_mask, chosen_size)
    stack = [(full, 0, 0)]
    while stack:
        cand, chosen, size = stack.pop()
        # greedy matching bound
        count = cand.bit_count()
        pairs = 0
        m = cand
        pick = 0
        pick_deg = -1
        while m:
            vbit = m & -m
            m ^= vbit
            v = vbit.bit_length() - 1
            nb = adj[v] & cand
            d = nb.bit_count()
            if d > pick_deg:
                pick_deg = d
                pick = v
            nbm = adj[v] & m
            if nbm:
                m ^= nbm & -nbm
                pairs += 1
        if size + count - pairs <= best:
            continue
        if pairs == 0:
            # candidates are pairwise independent
            best = size + count
            best_set = chosen | cand
            if stop_at is not None and best >= stop_at:
                return best, best_set
            continue
        vbit = 1 << pick
        # explore the include branch first (good for early exit)
        stack.append((cand & ~vbit, chosen, size))
        stack.append((cand & ~(adj[pick] | vbit), chosen | vbit, size + 1))
    return best, best_set


def find_independent_set(g: Graph, size: int) -> Optional[int]:
    """Bitmask of an independent set of the given order, or None."""
    got, mask = _alpha(g.adj, (1 << g.n) - 1, size)
    if got < size:
        return None
    # trim to exactly `size` vertices
    m = mask
    while m.bit_count() > size:
        m &= m - 1
    return m


def validate_member(g: Graph, k: int) -> ClassParams:
    """Accept g as a (3,k)-class member or raise MembershipError.

    Membership means triangle-free with alpha(g) < k; the maximum degree is
    then automatically below k (a neighborhood is an independent set).  For
    k = 1, alpha < 1 means g has no vertices.
    """
    if k < 1:
        raise ValueError("class bound k must be >= 1")
    tri = find_triangle(g)
    if tri is not None:
        raise MembershipError(f"triangle {tri}", "triangle", tri)
    witness = find_independent_set(g, k)
    if witness is not None:
        raise MembershipError(
            f"independent set of order {k}", "independent-set", witness)
    return ClassParams(k, g.n, g.edge_count())


# ---------------------------------------------------------------------------
# Local structure: Z(v), G_v, deficiencies
# ---------------------------------------------------------------------------

def z_value(g: Graph, v: int) -> int:
    """Sum of the degrees of the neighbors of v."""
    total = 0
    m = g.adj[v]
    while m:
        u = (m & -m).bit_length() - 1
        m &= m - 1
        total += g.adj[u].bit_count()
    return total


def local_subgraph(g: Graph, v: int) -> Graph:
    """The graph induced by deleting v together with its neighborhood."""
    keep = ((1 << g.n) - 1) & ~(g.adj[v] | 1 << v)
    return g.induced(keep)


def deficiency_vertex(g: Graph, v: int, k: int, table) -> int:
    """Slack of e(g) against the minimum forced through v's local subgraph.

    ``table`` must answer ``bound_value(k-1, m)`` with the minimum edge count
    of the (3,k-1;m) class (exact or lower bound); an infinite entry is an
    error, never a sentinel.
    """
    d = g.degree(v)
    m = g.n - d - 1
    b = table.bound_value(k - 1, m)
    return g.edge_count() - z_value(g, v) - b


def deficiency_graph(g: Graph, k: int, table) -> int:
    """Sum of vertex deficiencies; equals the degree-sequence form."""
    return sum(deficiency_vertex(g, v, k, table) for v in range(g.n))


def deficiency_from_histogram(n: int, e: int, hist: dict, k: int, table) -> int:
    """Degree-sequence form: n*e - sum_i n_i * (i^2 + bound(k-1, n-i-1))."""
    total = n * e
    for i, ni in hist.items():
        if ni:
            total -= ni * (i * i + table.bound_value(k - 1, n - i - 1))
    return total


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def circulant(n: int, distances) -> Graph:
    """Graph on Z_n with i ~ j iff the circular distance of i, j is listed."""
    dset = set(distances)
    for d in dset:
        if not 1 <= d <= n // 2:
            raise ValueError(f"distance {d} outside 1..{n // 2}")
    adj = [0] * n
    for i in range(n):
        for d in dset:
            adj[i] |= 1 << ((i + d) % n)
            adj[i] |= 1 << ((i - d) % n)
    return Graph(n, adj)
