"""Precomputed independence data over induced subgraphs.

The subset table answers "does this induced subgraph contain an independent
set of order r" in one array lookup, for r inside a band determined by the
extension degree.  It is filled top-down: independent sets of each banded
order are expanded to all supersets, and expansion stops at cells already
filled by a larger order, so each cell is written at most once.
"""

from __future__ import annotations

from .graphs import Graph, CapacityError

DEFAULT_TABLE_CAP = 28  # 2^28 one-byte cells = 256 MiB


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

    cells[S] is 0 when alpha(base[S]) < band_low, otherwise
    min(alpha(base[S]), band_high).
    """

    __slots__ = ("base", "band_low", "band_high", "cells")

    def __init__(self, base: Graph, band_low: int, band_high: int, cells: bytearray):
        self.base = base
        self.band_low = band_low
        self.band_high = band_high
        self.cells = cells

    def alpha_at_least(self, mask: int, r: int) -> bool:
        """Exact for band_low <= r <= band_high."""
        return self.cells[mask] >= r

    def value(self, mask: int) -> int:
        return self.cells[mask]


def build_independence_table(
    base: Graph, k: int, d: int, cap: int = DEFAULT_TABLE_CAP
) -> IndependenceTable:
    """Table for extending a (3,k)-member by a degree-d vertex.

    Band runs from k+1-d up to k-1, matching the orders the pruning tests
    ever ask about.
    """
    n = base.n
    if n > cap:
        raise CapacityError(
            f"order {n} exceeds subset-table cap {cap}; use lazy queries")
    if d < 1 or k + 1 - d < 1:
        raise ValueError(f"band [{k + 1 - d}, {k - 1}] invalid (k={k}, d={d})")
    band_high = k - 1
    band_low = k + 1 - d
    cells = bytearray(1 << n)
    full = (1 << n) - 1
    for j in range(band_high, band_low - 1, -1):
        for s in independent_sets(base, j, j):
            if cells[s]:
                continue
            cells[s] = j
            stack = [s]
            while stack:
                x = stack.pop()
                free = full & ~x
                while free:
                    wbit = free & -free
                    free ^= wbit
                    y = x | wbit
                    if not cells[y]:
                        cells[y] = j
                        stack.append(y)
    return IndependenceTable(base, band_low, band_high, cells)
