"""Precomputed independence data over induced subgraphs.

The subset table answers "does this induced subgraph contain an independent
set of order r" by reading one bit, for every r up to k-1.  Order r keeps
one bitset over the subsets, filled bottom-up by the subset recurrence
alpha(S) >= r iff alpha(S - v) >= r or alpha(S - N[v]) >= r - 1 for the top
vertex v of S: one shift-and-mask gather per order and lower neighbour of v.
"""

from __future__ import annotations

from .graphs import Graph, CapacityError, bits

TABLE_MAX_ORDER = 24  # k-1 bitsets of 2^24 bits = 2 MiB each


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


def build_independence_table(base: Graph, k: int) -> list:
    """Table for extending a (3,k)-member: entry r, for 1 <= r <= k-1, is
    a little-endian bitset of 2^n bits whose bit S is set when
    alpha(base[S]) >= r; entry 0 is None, as every subset passes.

    No higher order is kept, because the extension engine asks only
    whether alpha(base[S]) >= r for orders r <= k-1.
    """
    n = base.n
    if n > TABLE_MAX_ORDER:
        raise CapacityError(
            f"order {n} exceeds subset-table limit {TABLE_MAX_ORDER}")
    # ge[r] over the subsets of the vertices below v; none before the first
    ge = [None] + [0] * (k - 1)
    for v, row in enumerate(base.adj):
        # the subsets with top vertex v are v + R for R below v; bit R of
        # the gather of ge[r-1] is its bit R - N(v), found by clearing each
        # lower neighbour b in turn: keep the positions with bit b clear
        # and copy each one 2^b up
        width = 1 << v
        gathers = [(1 << b, _bit_clear_positions(b, width))
                   for b in bits(row & (width - 1))]
        # from the top order down, so ge[r-1] is still the lower half
        for r in range(k - 1, 0, -1):
            if r == 1:
                lifted = (1 << width) - 1  # every set holding v
            else:
                lifted = ge[r - 1]
                for shift, keep in gathers:
                    lifted &= keep
                    lifted |= lifted << shift
                lifted |= ge[r]
            ge[r] |= lifted << width
    size = ((1 << n) + 7) >> 3
    for r in range(1, k):  # one order at a time holds two copies
        ge[r] = ge[r].to_bytes(size, "little")
    return ge


def _bit_clear_positions(b: int, width: int) -> int:
    """The positions below width (a power of two above 2^b) whose bit b is
    clear: blocks of 2^b set bits, 2^b apart."""
    period = 2 << b
    mask = (1 << (1 << b)) - 1
    while period < width:
        mask |= mask << period
        period <<= 1
    return mask
