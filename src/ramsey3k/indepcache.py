"""Precomputed independence data over induced subgraphs.

The subset table answers "does this induced subgraph contain an independent
set of order r" in one array lookup, for every r up to k-1.  It is filled
bottom-up by the subset recurrence
alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])) for the top vertex v of
S, one vectorised step per vertex, saturating at k-1.
"""

from __future__ import annotations

from .graphs import Graph, CapacityError

TABLE_MAX_ORDER = 24  # 2^24 one-byte cells = 16 MiB
_CHUNK = 1 << 16      # subsets per vectorised step


def independent_sets(g: Graph, hi: int) -> list:
    """All independent-set bitmasks of order at most hi, the empty set first.

    Discovery is lowest-vertex-first; the result is sorted by (order, mask)
    so ascending-order iteration is a simple scan.
    """
    if hi < 0:
        return []
    adj = g.adj
    n = g.n
    found = [(0, 0)]
    stack = [(1 << v, v, 1, adj[v]) for v in range(n - 1, -1, -1) if hi]
    while stack:
        mask, last, size, blocked = stack.pop()
        found.append((size, mask))
        if size == hi:
            continue
        free = ~blocked
        for v in range(last + 1, n):
            if free >> v & 1:
                stack.append((mask | 1 << v, v, size + 1, blocked | adj[v]))
    found.sort()
    return [mask for _, mask in found]


def build_independence_table(base: Graph, k: int) -> bytearray:
    """Table for extending a (3,k)-member: cell S holds
    min(alpha(base[S]), k-1), one byte per subset S of the vertices.

    Saturating at k-1 loses nothing, because the extension engine asks only
    whether alpha(base[S]) >= r for orders r <= k-1.
    """
    import numpy as np  # here, so the pure-Python paths never load it

    n = base.n
    if n > TABLE_MAX_ORDER:
        raise CapacityError(
            f"order {n} exceeds subset-table limit {TABLE_MAX_ORDER}")
    cells = bytearray(1 << n)
    alpha = np.frombuffer(cells, dtype=np.uint8)
    # one index range, reused in chunks, bounds the scratch memory
    span = np.arange(min(1 << n, _CHUNK), dtype=np.uint32)
    for v, row in enumerate(base.adj):
        # the subsets with top vertex v are v + R for R below v; saturating
        # alpha at k-1 commutes with the recurrence
        half = 1 << v
        keep = (half - 1) & ~row
        for lo in range(0, half, _CHUNK):
            hi = min(half, lo + _CHUNK)
            with_v = np.minimum(alpha[(span[:hi - lo] + lo) & keep] + 1, k - 1)
            np.maximum(alpha[lo:hi], with_v, out=alpha[half + lo:half + hi])
    return cells
