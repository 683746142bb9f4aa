"""Bundled published edge-bound data.

These CSVs are inputs to the toolkit, not outputs: the small-order exact
grid, the k=9 and k=10 columns that anchor the propagation chain, and the
published k=11..15 lower-bound columns used by the acceptance checks as
comparison targets.  Rows flagged "b" lie beyond the closed-form range;
rows flagged "t" are closed-form values quoted where the degree-sequence
system is weaker.
"""

from __future__ import annotations

import csv
from importlib import resources

from ..degseq import (EXACT, INFINITE, BoundEntry, EdgeBoundTable,
                      _fill_closed_level, propagate_bounds)

_GRID = "known_exact_small.csv"
_K9 = "known_e_k9.csv"
_K10 = "known_e_k10.csv"
_HIGH = "published_bounds_k11_15.csv"

# definitional base levels: alpha < 1 admits only the empty graph, and
# alpha < 2 admits exactly the complete triangle-free graphs K1, K2
_BASE_ROWS = (
    (1, 0, EXACT, 0),
    (2, 0, EXACT, 0),
    (2, 1, EXACT, 0),
    (2, 2, EXACT, 1),
    (1, 1, INFINITE, None),
    (2, 3, INFINITE, None),
)


def _read(name: str):
    text = resources.files(__package__).joinpath(name).read_text()
    rows = list(csv.reader(text.splitlines()))
    if not rows or rows[0] != ["k", "n", "kind", "value", "flag"]:
        raise ValueError(f"bundled table {name}: unexpected header")
    out = []
    for row in rows[1:]:
        if not row or not any(c.strip() for c in row):
            continue
        k, n, kind, value, flag = row
        out.append((int(k), int(n), kind,
                    None if value == "" else int(value), flag))
    return out


def _as_table(rows, provenance: str) -> EdgeBoundTable:
    t = EdgeBoundTable()
    for k, n, kind, value, _ in sorted(rows):
        t.set(k, n, BoundEntry(kind, value, provenance))
    return t


def small_exact_table() -> EdgeBoundTable:
    """The published exact grid for 3 <= k <= 16, n <= 31."""
    return _as_table(_read(_GRID), "published")


def small_exact_flags() -> dict:
    """(k, n) -> flag string for the grid ('' or 'b')."""
    return {(k, n): flag for k, n, _, _, flag in _read(_GRID)}


def builtin_table(max_level: int = 10) -> EdgeBoundTable:
    """Definitional base levels and all bundled published values up to the
    given level; gaps get closed-form exact entries and, on levels 11..20,
    propagated bounds (from 21 the closed forms cover every order <= 64)."""
    t = EdgeBoundTable()
    for k, n, kind, value in _BASE_ROWS:
        if k <= max_level:
            t.set(k, n, BoundEntry(kind, value, "definitional"))
    rows = _read(_GRID)
    if max_level >= 9:
        rows += _read(_K9)
    if max_level >= 10:
        rows += _read(_K10)
    for k, n, kind, value, _ in sorted(rows):
        if k <= max_level:
            t.set(k, n, BoundEntry(kind, value, "published"))
    if max_level > 10:
        t = propagate_bounds(11, min(max_level, 20), t)
    for k in range(3, max_level + 1):
        _fill_closed_level(t, k)
    return t


def published_high_bounds() -> EdgeBoundTable:
    """Published k=11..15 lower-bound columns (comparison data)."""
    return _as_table(_read(_HIGH), "published")


def published_high_flags() -> dict:
    return {(k, n): flag for k, n, _, _, flag in _read(_HIGH)}
