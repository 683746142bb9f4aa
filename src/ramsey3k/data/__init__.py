"""Bundled published edge-bound data.

These CSVs are inputs to the toolkit, not outputs: the small-order exact
grid, the k=9 and k=10 columns that anchor the propagation chain, and the
published k=11..15 lower-bound columns used by the acceptance checks as
comparison targets.  Rows flagged "b" lie beyond the closed-form range;
rows flagged "t" are closed-form values quoted where the degree-sequence
system is weaker.

The bound commands and the manifest reader take level-L bounds from the
table through L built here: base levels and bundled rows up to L, a user
CSV over them, and the closed-form exact prefix of levels 3..10.  Every
other entry, on any level, is derived when first read
(``degseq.derived_entry``).
"""

from __future__ import annotations

import csv
import functools
from importlib import resources

from ..degseq import (EXACT, INFINITE, BoundEntry, EdgeBoundTable,
                      _fill_closed_level)

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
    """The table through the given level, built once per level and process;
    each call returns a copy, which the caller may change."""
    return _bundled(max_level).copy()


def table_with(user: EdgeBoundTable, max_level: int) -> EdgeBoundTable:
    """The table through the given level with ``user``'s rows set over the
    bundled ones before any entry is derived; built afresh on each call."""
    rows = _read(_GRID) + _read(_K9) + _read(_K10)
    t = _as_table([row for row in rows if row[0] <= max_level], "published")
    for k, n, kind, value in _BASE_ROWS:
        if k <= max_level:
            t.set(k, n, BoundEntry(kind, value, "definitional"))
    t.merge(user)
    for k in range(3, min(max_level, 10) + 1):
        _fill_closed_level(t, k)
    return t


_bundled = functools.cache(lambda level: table_with(EdgeBoundTable(), level))


def published_high_bounds() -> EdgeBoundTable:
    """Published k=11..15 lower-bound columns (comparison data)."""
    return _as_table(_read(_HIGH), "published")


def published_high_flags() -> dict:
    return {(k, n): flag for k, n, _, _, flag in _read(_HIGH)}
