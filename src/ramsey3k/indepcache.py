"""Precomputed independence data over induced subgraphs.

The subset table answers "does this induced subgraph contain an independent
set of order r" in one array lookup, for r inside a band determined by the
extension degree.  It is filled bottom-up by the subset recurrence
alpha(S) = max(alpha(S - v), 1 + alpha(S - N[v])) for the top vertex v of
S, one vectorised step per vertex, and then clamped to the band.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, CapacityError

TABLE_MAX_ORDER = 24  # 2^24 one-byte cells = 16 MiB
_CHUNK = 1 << 16      # subsets per vectorised step


def independent_sets(g: Graph, lo: int, hi: int) -> list:
    """All independent-set bitmasks with lo <= order <= hi.

    Discovery is lowest-vertex-first; the result is sorted by (order, mask)
    so ascending-order iteration is a simple scan.
    """
    if hi < lo or hi < 0:
        return []
    adj = g.adj
    n = g.n
    found = []
    if lo <= 0:
        found.append((0, 0))
    stack = [(1 << v, v, 1, adj[v]) for v in range(n - 1, -1, -1)]
    while stack:
        mask, last, size, blocked = stack.pop()
        if size >= lo:
            found.append((size, mask))
        if size == hi:
            continue
        free = ~blocked
        for v in range(last + 1, n):
            if free >> v & 1:
                stack.append((mask | 1 << v, v, size + 1, blocked | adj[v]))
    found.sort()
    return [mask for _, mask in found]


class IndependenceTable:
    """2^n banded independence numbers of all induced subgraphs.

    For the graph G it was built from, cells[S] is 0 when
    alpha(G[S]) < band_low, otherwise min(alpha(G[S]), band_high).
    """

    __slots__ = ("band_low", "band_high", "cells")

    def __init__(self, band_low: int, band_high: int, cells: bytearray):
        self.band_low = band_low
        self.band_high = band_high
        self.cells = cells


def build_independence_table(base: Graph, k: int, d: int) -> IndependenceTable:
    """Table for extending a (3,k)-member by a degree-d vertex.

    Band runs from k+1-d up to k-1, matching the orders the pruning tests
    ever ask about.
    """
    n = base.n
    if n > TABLE_MAX_ORDER:
        raise CapacityError(
            f"order {n} exceeds subset-table limit {TABLE_MAX_ORDER}")
    if d < 1 or k + 1 - d < 1:
        raise ValueError(f"band [{k + 1 - d}, {k - 1}] invalid (k={k}, d={d})")
    band_high = k - 1
    band_low = k + 1 - d
    cells = bytearray(1 << n)
    alpha = np.frombuffer(cells, dtype=np.uint8)
    # one index range, reused in chunks, bounds the scratch memory
    span = np.arange(min(1 << n, _CHUNK), dtype=np.uint32)
    for v, row in enumerate(base.adj):
        # the subsets with top vertex v are v + R for R below v; saturating
        # alpha at band_high commutes with the recurrence
        half = 1 << v
        keep = (half - 1) & ~row
        for lo in range(0, half, _CHUNK):
            hi = min(half, lo + _CHUNK)
            with_v = np.minimum(alpha[(span[:hi - lo] + lo) & keep] + 1,
                                band_high)
            np.maximum(alpha[lo:hi], with_v, out=alpha[half + lo:half + hi])
    for lo in range(0, 1 << n, _CHUNK):
        part = alpha[lo:lo + _CHUNK]
        part[part < band_low] = 0
    return IndependenceTable(band_low, band_high, cells)
