"""Everything derivable from degree sequences alone.

Central identity: a triangle-free graph with alpha < k, n vertices, e edges
and n_i vertices of degree i satisfies

    n*e - sum_i n_i * (i^2 + B(k-1, n-i-1)) >= 0

where B(k-1, m) is any valid lower bound on the minimum edge count of the
(3,k-1;m) class.  Enumerating the integer solutions of this system (plus
sum n_i = n and sum i*n_i = 2e) yields minimum-edge lower bounds, closure
certificates for the extension pipeline, and, where no solution exists at
any edge count, upper bounds on the Ramsey numbers R(3,k).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

EXACT = "exact"
LOWER = "lower"
INFINITE = "infinite"

_INF_SENTINEL = 1 << 60
PLAN_MAX_ROUNDS = 10000  # greedy increment rounds before plan_closure gives up


class MissingBoundError(KeyError):
    """The table has no entry at all for a requested (k, n)."""


class InfiniteBoundError(ValueError):
    """A finite bound was required but the entry is infinite."""


@dataclass(frozen=True)
class BoundEntry:
    kind: str
    value: Optional[int] = None
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in (EXACT, LOWER, INFINITE):
            raise ValueError(f"unknown bound kind {self.kind!r}")
        if self.kind == INFINITE:
            if self.value is not None:
                raise ValueError("infinite entries carry no value")
        else:
            if self.value is None or self.value < 0:
                raise ValueError(f"bad bound value {self.value!r}")


class EdgeBoundTable:
    """Map (k, n) -> minimum-edge bound for the (3,k;n) class.

    Infinity is upward closed in n: once a class is empty it stays empty
    when vertices are added, so a query above an explicit infinite entry
    resolves to infinite even without its own row.
    """

    def __init__(self):
        self.entries: dict = {}
        self._first_infinite: dict = {}

    def set(self, k: int, n: int, entry: BoundEntry) -> None:
        first_inf = self._first_infinite.get(k)
        if entry.kind != INFINITE and first_inf is not None and n > first_inf:
            raise ValueError(
                f"finite entry ({k},{n}) above infinite boundary {first_inf}")
        self.entries[(k, n)] = entry
        if entry.kind == INFINITE:
            if first_inf is None or n < first_inf:
                self._first_infinite[k] = n
                for (kk, nn), e in list(self.entries.items()):
                    if kk == k and nn > n and e.kind != INFINITE:
                        raise ValueError(
                            f"finite entry ({kk},{nn}) above new infinite row {n}")

    def entry(self, k: int, n: int) -> BoundEntry:
        e = self.entries.get((k, n))
        if e is not None:
            return e
        first_inf = self._first_infinite.get(k)
        if first_inf is not None and n >= first_inf:
            return BoundEntry(INFINITE, provenance="implied")
        raise MissingBoundError(f"no bound entry for k={k}, n={n}")

    def has(self, k: int, n: int) -> bool:
        try:
            self.entry(k, n)
            return True
        except MissingBoundError:
            return False

    def is_infinite(self, k: int, n: int) -> bool:
        return self.entry(k, n).kind == INFINITE

    def bound_value(self, k: int, n: int) -> int:
        e = self.entry(k, n)
        if e.kind == INFINITE:
            raise InfiniteBoundError(f"bound for k={k}, n={n} is infinite")
        return e.value

    def first_infinite(self, k: int) -> Optional[int]:
        return self._first_infinite.get(k)

    def levels(self) -> list:
        return sorted({k for k, _ in self.entries})

    def merge(self, other: "EdgeBoundTable", overwrite: bool = False) -> None:
        for (k, n), e in sorted(other.entries.items()):
            if overwrite or (k, n) not in self.entries:
                self.set(k, n, e)

    def copy(self) -> "EdgeBoundTable":
        t = EdgeBoundTable()
        t.entries = dict(self.entries)
        t._first_infinite = dict(self._first_infinite)
        return t

    # -- CSV interchange ----------------------------------------------------

    CSV_HEADER = ["k", "n", "kind", "value", "provenance"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.CSV_HEADER)
        for (k, n) in sorted(self.entries):
            e = self.entries[(k, n)]
            w.writerow([k, n, e.kind, "" if e.value is None else e.value,
                        e.provenance])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EdgeBoundTable":
        t = cls()
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or [c.strip() for c in rows[0]] != cls.CSV_HEADER:
            raise ValueError("bound table CSV must start with "
                             + ",".join(cls.CSV_HEADER))
        for row in rows[1:]:
            if not row or not any(c.strip() for c in row):
                continue
            k, n, kind, value, provenance = (row + [""] * 5)[:5]
            entry = BoundEntry(
                kind.strip(),
                None if value.strip() == "" else int(value),
                provenance.strip(),
            )
            t.set(int(k), int(n), entry)
        return t


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def closed_form_e(k_plus_1: int, n: int) -> BoundEntry:
    """Known exact minimum edge counts for small n, else the universal
    6n-13k lower bound.

    With k = k_plus_1 - 1 the exact ranges are n <= k (0), n <= 2k (n-k),
    n <= 5k/2 (3n-5k), n <= 3k (5n-10k) and n <= 13k/4 - 1 (6n-13k), plus
    n = 13t when k = 4t.  Outside them 6n-13k still holds as a lower bound.
    """
    if k_plus_1 < 1:
        raise ValueError("class bound must be >= 1")
    k = k_plus_1 - 1
    if n < 0:
        raise ValueError("negative order")
    if k_plus_1 <= 2:
        # degenerate classes: members are complete graphs on <= k_plus_1
        # vertices, so the theorem ranges above n = k_plus_1 do not apply
        if n <= k:
            return BoundEntry(EXACT, 0, "closed form")
        if n == k_plus_1 and k_plus_1 == 2:
            return BoundEntry(EXACT, 1, "closed form")
        return BoundEntry(LOWER, max(0, 6 * n - 13 * k), "closed form")
    # the exact ranges hold only while the class is nonempty; for the two
    # smallest classes the emptiness boundary (n = 6 resp. 9) cuts into them
    if (k_plus_1 == 3 and n >= 6) or (k_plus_1 == 4 and n >= 9):
        return BoundEntry(LOWER, max(0, 6 * n - 13 * k), "closed form")
    if n <= k:
        return BoundEntry(EXACT, 0, "closed form")
    if n <= 2 * k:
        return BoundEntry(EXACT, n - k, "closed form")
    if 2 * n <= 5 * k:
        return BoundEntry(EXACT, 3 * n - 5 * k, "closed form")
    if n <= 3 * k:
        return BoundEntry(EXACT, 5 * n - 10 * k, "closed form")
    if 4 * n <= 13 * k - 4 or (k % 4 == 0 and 4 * n == 13 * k):
        return BoundEntry(EXACT, 6 * n - 13 * k, "closed form")
    return BoundEntry(LOWER, max(0, 6 * n - 13 * k), "closed form")


def closed_form_max_n(k_plus_1: int) -> int:
    """Largest n whose closed form is exact (the 13k/4 boundary)."""
    if k_plus_1 <= 2:
        return k_plus_1
    k = k_plus_1 - 1
    top = (13 * k - 4) // 4
    if k % 4 == 0:
        top = max(top, 13 * (k // 4))
    return top


# ---------------------------------------------------------------------------
# The integer system
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeSequenceSolution:
    """One solution vector of the degree-sequence system."""

    counts: tuple          # ((degree, n_i) for every degree in range, zeros kept)
    n: int
    e: int
    slack: int             # n*e - sum n_i (i^2 + bound)

    def count(self, degree: int) -> int:
        for d, c in self.counts:
            if d == degree:
                return c
        return 0

    def nonzero(self) -> dict:
        return {d: c for d, c in self.counts if c}

    def __str__(self):
        inside = ", ".join(f"n{d}={c}" for d, c in self.counts if c)
        return f"[{inside or 'empty'} | e={self.e}, slack={self.slack}]"


def _degree_costs(k: int, n: int, table: EdgeBoundTable, d_lo, d_hi):
    """Allowed degrees and their i^2 + bound(k-1, n-i-1) costs."""
    if d_hi is None:
        d_hi = k - 1
    if d_lo is None:
        d_lo = 0
    if d_hi > k - 1:
        raise ValueError(f"degree cap {d_hi} exceeds k-1={k - 1}")
    degrees = []
    costs = {}
    for i in range(d_lo, d_hi + 1):
        m = n - i - 1
        if m < 0:
            continue
        entry = table.entry(k - 1, m)  # raises MissingBoundError on gaps
        if entry.kind == INFINITE:
            continue
        degrees.append(i)
        costs[i] = i * i + entry.value
    return degrees, costs


def feasible_sequences(
    k: int,
    n: int,
    e: int,
    table: EdgeBoundTable,
    d_lo: Optional[int] = None,
    d_hi: Optional[int] = None,
    extra: Optional[dict] = None,
) -> list:
    """All degree-count vectors satisfying the system at exactly e edges.

    ``extra`` adds per-degree increments to the table bounds (the closure
    certificate uses this).  Output is in lexicographic order of the count
    vector over ascending degrees.
    """
    degrees, costs = _degree_costs(k, n, table, d_lo, d_hi)
    if extra:
        for i in list(costs):
            costs[i] += extra.get(i, 0)
    if not degrees:
        return []
    lo = min(degrees)
    hi = max(degrees)
    budget = n * e
    target_s = 2 * e
    order = sorted(degrees, reverse=True)
    # cheapest cost among classes from idx onward, for pruning
    suffix_min = [0] * (len(order) + 1)
    suffix_min[len(order)] = 0
    for idx in range(len(order) - 1, -1, -1):
        c = costs[order[idx]]
        suffix_min[idx] = c if idx == len(order) - 1 else min(c, suffix_min[idx + 1])
    solutions = []
    counts = {}

    def rec(idx: int, verts_left: int, s_left: int, cost_so_far: int):
        if cost_so_far + verts_left * suffix_min[idx] > budget:
            return
        if idx == len(order):
            if verts_left == 0 and s_left == 0:
                vec = tuple((d, counts.get(d, 0)) for d in range(lo, hi + 1))
                solutions.append(DegreeSequenceSolution(
                    vec, n, e, budget - cost_so_far))
            return
        i = order[idx]
        rest = order[idx + 1:]
        max_rest_deg = rest[0] if rest else 0
        min_rest_deg = rest[-1] if rest else 0
        c = costs[i]
        hi_cnt = verts_left if i == 0 else min(verts_left, s_left // i)
        # remaining classes must be able to absorb the leftover degree sum
        for cnt in range(hi_cnt, -1, -1):
            s_after = s_left - cnt * i
            v_after = verts_left - cnt
            if not rest:
                if v_after != 0 or s_after != 0:
                    continue
            else:
                if s_after > v_after * max_rest_deg:
                    break  # leftover degree sum outgrows the remaining classes
                if s_after < v_after * min_rest_deg:
                    continue
            counts[i] = cnt
            rec(idx + 1, v_after, s_after, cost_so_far + cnt * c)
        counts.pop(i, None)

    rec(0, n, target_s, 0)
    solutions.sort(key=lambda sol: tuple(c for _, c in sol.counts))
    return solutions


def min_edge_bound(
    k: int,
    n: int,
    table: EdgeBoundTable,
    d_lo: Optional[int] = None,
    d_hi: Optional[int] = None,
) -> BoundEntry:
    """Smallest e admitting a solution, or infinite if none exists.

    Scans a dynamic program over (vertices used, degree sum) that carries
    the minimum achievable cost sum; e = s/2 is feasible exactly when that
    minimum cost stays within n*e.
    """
    degrees, costs = _degree_costs(k, n, table, d_lo, d_hi)
    if not degrees or n == 0:
        if n == 0:
            return BoundEntry(LOWER, 0, "computed")
        return BoundEntry(INFINITE, provenance="computed")
    smax = n * max(degrees)
    f = np.full((n + 1, smax + 1), _INF_SENTINEL, dtype=np.int64)
    f[0, 0] = 0
    for i in degrees:
        c = costs[i]
        if i == 0:
            for u in range(1, n + 1):
                np.minimum(f[u], f[u - 1] + c, out=f[u])
        else:
            for u in range(1, n + 1):
                np.minimum(f[u, i:], f[u - 1, :-i] + c, out=f[u, i:])
    row = f[n]
    for s in range(0, smax + 1, 2):
        if 2 * row[s] <= n * s:
            return BoundEntry(LOWER, s // 2, "computed")
    return BoundEntry(INFINITE, provenance="computed")


def z_upper_bound(k: int, n: int, e: int, d: int, table: EdgeBoundTable) -> int:
    """Largest admissible neighbor-degree sum for a degree-d vertex."""
    m = n - d - 1
    entry = table.entry(k - 1, m)
    if entry.kind == INFINITE:
        raise InfiniteBoundError(
            f"degree {d} impossible: (k={k - 1}, n={m}) class is empty")
    return e - entry.value


# ---------------------------------------------------------------------------
# Closure plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanRow:
    degree: int
    m: int                 # order of the local subgraph, n - degree - 1
    base: int              # minimum edge count of the input class
    increment: int         # t: inputs cover edge counts < base + t
    ceiling: int           # base + increment - 1, the input edge cap

    def __post_init__(self):
        if self.increment < 0:
            raise ValueError("negative increment")
        if self.ceiling != self.base + self.increment - 1:
            raise ValueError("ceiling must equal base + increment - 1")


@dataclass
class ClosurePlan:
    k_plus_1: int
    n: int
    e: int
    rows: list = field(default_factory=list)

    def row_for(self, degree: int) -> Optional[PlanRow]:
        for r in self.rows:
            if r.degree == degree:
                return r
        return None

    def increments(self) -> dict:
        return {r.degree: r.increment for r in self.rows}

    CSV_HEADER = ["degree", "m", "base", "increment", "ceiling"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.CSV_HEADER)
        for r in sorted(self.rows, key=lambda r: r.degree):
            w.writerow([r.degree, r.m, r.base, r.increment, r.ceiling])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, k_plus_1: int, n: int, e: int) -> "ClosurePlan":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or [c.strip() for c in rows[0]] != cls.CSV_HEADER:
            raise ValueError("plan CSV must start with "
                             + ",".join(cls.CSV_HEADER))
        plan = cls(k_plus_1, n, e)
        for row in rows[1:]:
            if not row or not any(c.strip() for c in row):
                continue
            d, m, base, inc, ceil = (int(x) for x in row[:5])
            plan.rows.append(PlanRow(d, m, base, inc, ceil))
        return plan


@dataclass
class ClosureCheck:
    certified: bool
    survivors: list

    @property
    def counterexample(self) -> Optional[DegreeSequenceSolution]:
        return self.survivors[0] if self.survivors else None


def _feasible_rows(k_plus_1: int, n: int, table: EdgeBoundTable) -> list:
    """(degree i, m = n-i-1, e(3,k,m)) for every degree whose local
    subgraph order has a finite edge bound."""
    k = k_plus_1 - 1
    rows = []
    for i in range(0, min(k_plus_1, n)):
        entry = table.entry(k, n - i - 1)
        if entry.kind != INFINITE:
            rows.append((i, n - i - 1, entry.value))
    return rows


def closure_sufficiency_check(
    k_plus_1: int,
    n: int,
    e: int,
    plan: ClosurePlan,
    table: EdgeBoundTable,
) -> ClosureCheck:
    """Certify that extending the planned inputs yields every
    (3,k_plus_1;n,<=e)-graph.

    A graph missed by the plan would have, at every vertex of degree i, a
    local subgraph with at least base_i + t_i edges; its degree sequence
    would then solve the system with the incremented bounds.  No solution
    at any edge count up to e means no graph is missed.
    """
    feasible = _feasible_rows(k_plus_1, n, table)
    plan_rows = {r.degree: r for r in plan.rows}
    extra = {}
    for i, m, base in feasible:
        row = plan_rows.get(i)
        if row is None:
            raise ValueError(f"plan has no row for feasible degree {i}")
        if row.m != m:
            raise ValueError(f"plan row for degree {i} has m={row.m}, expected {m}")
        if row.base != base:
            raise ValueError(
                f"plan row for degree {i} has base={row.base}, table says {base}")
        extra[i] = row.increment
    survivors = []
    for e_prime in range(0, e + 1):
        survivors.extend(
            feasible_sequences(k_plus_1, n, e_prime, table, extra=extra))
    return ClosureCheck(not survivors, survivors)


def default_cost_model(m: int, edge_cap: int, base: int) -> float:
    """Crude growth model for the count of input graphs at an edge cap."""
    return 20.0 ** max(0, edge_cap - base + 1)


def plan_closure(
    k_plus_1: int,
    n: int,
    e: int,
    table: EdgeBoundTable,
    cost_model: Optional[Callable] = None,
) -> ClosurePlan:
    """Greedy increment selection until the closure certificate holds.

    Each round raises the increment whose unit increase kills the most
    surviving sequences per unit of estimated input cost, breaking ties
    toward degrees near the average degree 2e/n.
    """
    if cost_model is None:
        cost_model = default_cost_model
    feasible = _feasible_rows(k_plus_1, n, table)
    t = {i: 0 for i, _, _ in feasible}
    avg = 2.0 * e / n if n else 0.0
    info = {i: (m, base) for i, m, base in feasible}

    def build_plan():
        plan = ClosurePlan(k_plus_1, n, e)
        for i, m, base in feasible:
            plan.rows.append(PlanRow(i, m, base, t[i], base + t[i] - 1))
        return plan

    for _ in range(PLAN_MAX_ROUNDS):
        check = closure_sufficiency_check(k_plus_1, n, e, build_plan(), table)
        if check.certified:
            return build_plan()
        best = None
        for i, _, _ in feasible:
            killed = sum(
                1 for sol in check.survivors
                if sol.slack - sol.count(i) < 0
            )
            mass = sum(sol.count(i) for sol in check.survivors)
            if mass == 0:
                continue
            m, base = info[i]
            marginal = cost_model(m, base + t[i], base) - (
                cost_model(m, base + t[i] - 1, base) if t[i] else 0.0)
            score = (killed + 0.01 * mass) / max(marginal, 1e-9)
            key = (score, -abs(i - avg), -i)
            if best is None or key > best[0]:
                best = (key, i)
        if best is None:
            raise RuntimeError("no finite plan: survivors use no positive count")
        t[best[1]] += 1
    raise RuntimeError(f"no certified plan within {PLAN_MAX_ROUNDS} rounds")


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def propagate_bounds(
    k_from: int,
    k_to: int,
    seed: EdgeBoundTable,
) -> EdgeBoundTable:
    """Fill levels k_from..k_to from the level below each.

    Closed-form exact entries are materialized first; beyond them every
    order gets max(closed form, solver bound) until the system has no
    solution, which places the infinite boundary (and hence the R(3,k)
    upper bound) for the level.
    """
    result = seed.copy()
    for k in range(k_from, k_to + 1):
        if k - 1 >= 1:
            # make sure the closed-form exact range below is materialized
            _fill_closed_level(result, k - 1)
        n = 0
        exact_top = closed_form_max_n(k)
        while True:
            if result.has(k, n):
                if result.is_infinite(k, n):
                    break
                n += 1
                continue
            cf = closed_form_e(k, n)
            if n <= exact_top and cf.kind == EXACT:
                result.set(k, n, cf)
                n += 1
                continue
            solved = min_edge_bound(k, n, result)
            if solved.kind == INFINITE:
                result.set(k, n, BoundEntry(INFINITE, provenance="propagated"))
                break
            if cf.value >= solved.value:
                result.set(k, n, BoundEntry(LOWER, cf.value, "closed form"))
            else:
                result.set(k, n, BoundEntry(LOWER, solved.value, "propagated"))
            n += 1
            if n > 4 * k * k + 64:
                raise RuntimeError(f"no infinite boundary found for k={k}")
    return result


def _fill_closed_level(table: EdgeBoundTable, k: int) -> None:
    top = closed_form_max_n(k)
    for n in range(0, top + 1):
        if not table.has(k, n):
            cf = closed_form_e(k, n)
            if cf.kind == EXACT:
                table.set(k, n, cf)


def r_upper(k: int, table: EdgeBoundTable) -> Optional[int]:
    """Smallest n with an infinite entry: an upper bound for R(3,k)."""
    return table.first_infinite(k)
