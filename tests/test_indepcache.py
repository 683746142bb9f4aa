import random

import pytest

from ramsey3k.graphs import CapacityError, Graph, independence_number
from ramsey3k.indepcache import (
    TABLE_MAX_ORDER,
    build_independence_table,
    independent_sets,
)

from conftest import cycle, petersen, random_triangle_free


def brute_alpha_subset(g, mask):
    return independence_number(g.induced(mask))


class TestIndependentSets:
    def test_c5_orders(self):
        c5 = cycle(5)
        sets = independent_sets(c5, 0, 2)
        assert sets[0] == 0
        singles = [s for s in sets if s.bit_count() == 1]
        pairs = [s for s in sets if s.bit_count() == 2]
        assert len(singles) == 5 and len(pairs) == 5
        # sorted by (order, mask)
        assert sets == sorted(sets, key=lambda s: (s.bit_count(), s))

    def test_exhaustive_against_filter(self, rng):
        g = random_triangle_free(8, 0.35, rng)
        got = set(independent_sets(g, 1, 8))
        want = set()
        for mask in range(1, 1 << 8):
            verts = [v for v in range(8) if mask >> v & 1]
            if all(not g.has_edge(u, v) for i, u in enumerate(verts)
                   for v in verts[i + 1:]):
                want.add(mask)
        assert got == want


class TestIndependenceTable:
    def test_c5_band(self):
        t = build_independence_table(cycle(5), k=3, d=2)
        assert (t.band_low, t.band_high) == (2, 2)
        assert t.cells[0b00101] == 2      # {0, 2} independent
        assert t.cells[0b00011] == 0      # {0, 1} is an edge
        assert t.cells[0b11111] == 2

    def test_edgeless_band(self):
        t = build_independence_table(Graph.empty(4), k=4, d=3)
        assert (t.band_low, t.band_high) == (2, 3)
        assert t.cells[0b0011] == 2
        assert t.cells[0b0111] == 3
        assert t.cells[0b1111] == 3       # capped at band_high

    def test_petersen_random_subsets(self, rng):
        pet = petersen()
        t = build_independence_table(pet, k=5, d=4)
        for _ in range(1000):
            mask = rng.randrange(1 << 10)
            alpha = brute_alpha_subset(pet, mask)
            want = min(alpha, 4) if alpha >= 2 else 0
            assert t.cells[mask] == want, bin(mask)

    def test_cell_semantics_random(self, rng):
        g = random_triangle_free(9, 0.3, rng)
        k = independence_number(g) + 1
        d = min(4, k - 1)
        t = build_independence_table(g, k, d)
        for mask in range(0, 1 << 9, 7):
            alpha = brute_alpha_subset(g, mask)
            if alpha < t.band_low:
                assert t.cells[mask] == 0
            else:
                assert t.cells[mask] == min(alpha, t.band_high)

    def test_order_cap(self):
        with pytest.raises(CapacityError):
            build_independence_table(Graph.empty(TABLE_MAX_ORDER + 1), k=3, d=2)

    def test_every_subset_against_brute_force(self, rng):
        # every cell of every valid band, on triangle-free graphs of order
        # 0..12, against the independence number of the induced subgraph
        for n in range(13):
            g = random_triangle_free(n, rng.choice([0.2, 0.4, 0.7]), rng)
            alphas = [brute_alpha_subset(g, mask) for mask in range(1 << n)]
            for k in range(max(alphas) + 1, n + 3):
                for d in range(1, k + 1):
                    t = build_independence_table(g, k, d)
                    assert type(t.cells) is bytearray
                    want = bytes(min(a, k - 1) if a >= k + 1 - d else 0
                                 for a in alphas)
                    assert bytes(t.cells) == want, (n, k, d)
