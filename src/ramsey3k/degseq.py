"""Everything derivable from degree sequences alone.

Central identity: a triangle-free graph with alpha < k, n vertices, e edges
and n_i vertices of degree i satisfies

    n*e - sum_i n_i * (i^2 + B(k-1, n-i-1)) >= 0

where B(k-1, m) is any valid lower bound on the minimum edge count of the
(3,k-1;m) class.  Enumerating the integer solutions of this system (plus
sum n_i = n and sum i*n_i = 2e) yields minimum-edge lower bounds, closure
certificates (``ClosurePlan.survivors``: B from a bound table, raised to
max(B, ceiling + 1) at each degree a row covers), and, where no solution
exists at any edge count, upper bounds on the Ramsey numbers R(3,k).

One search, ``_sequences``, solves the system for all three.  It cuts by
the LP relaxation, v*L(s/v) for v vertices of degree sum s with L the lower
convex hull of the points (i, cost_i), which no integer solution beats.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import dataclass
from typing import Optional

EXACT = "exact"
LOWER = "lower"
INFINITE = "infinite"

PLAN_MAX_ROUNDS = 10000  # greedy increment rounds before plan_closure gives up


class MissingBoundError(KeyError):
    """The table has no entry at all for a requested (k, n)."""

    __str__ = Exception.__str__  # the message, without KeyError's quotes


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
        if entry.kind != INFINITE and first_inf is not None and n >= first_inf:
            raise ValueError(
                f"finite entry ({k},{n}) at or above infinite boundary {first_inf}")
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

    def merge(self, other: "EdgeBoundTable") -> None:
        """Set every entry of ``other`` here, over any entry already set."""
        for (k, n), e in sorted(other.entries.items()):
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

    def nonzero(self) -> dict:
        return {d: c for d, c in self.counts if c}

    def __str__(self):
        inside = ", ".join(f"n{d}={c}" for d, c in self.counts if c)
        return f"[{inside or 'empty'} | e={self.e}, slack={self.slack}]"


def _degree_costs(k: int, n: int, table: EdgeBoundTable, d_lo=0, d_hi=None):
    """Each allowed degree's i^2 + bound(k-1, n-i-1) cost; the degrees ascend."""
    if k < 1:
        raise ValueError(f"class bound k must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"negative order {n}")
    d_hi = k - 1 if d_hi is None else d_hi
    if d_lo < 0:
        raise ValueError(f"negative degree floor {d_lo}")
    if d_hi > k - 1:
        raise ValueError(f"degree cap {d_hi} exceeds k-1={k - 1}")
    if d_lo > d_hi:
        raise ValueError(f"degree floor {d_lo} is above the degree cap {d_hi}")
    costs = {}
    for i in range(d_lo, d_hi + 1):
        m = n - i - 1
        if m < 0:
            continue
        entry = table.entry(k - 1, m)  # raises MissingBoundError on gaps
        if entry.kind == INFINITE:
            continue
        costs[i] = i * i + entry.value
    return costs


def feasible_sequences(
    k: int,
    n: int,
    e: int,
    table: EdgeBoundTable,
    d_lo: int = 0,
    d_hi: Optional[int] = None,
) -> list:
    """All degree-count vectors satisfying the system at exactly e edges,
    in lexicographic order of the count vector over ascending degrees."""
    if e < 0:
        raise ValueError(f"negative edge count {e}")
    return _sequences(n, (e,), _degree_costs(k, n, table, d_lo, d_hi))


def _hull_lines(points: list) -> list:
    """(x, y, dx, dy) for each side of the region on or above the lower
    convex hull of ``points`` (given by ascending x) and between their
    least and greatest x: (X, Y) lies in it when (Y - y)*dx >= (X - x)*dy
    for every side."""
    hull = []
    for x, y in points:
        while len(hull) > 1 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                 <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
    segments = [(x, y, x1 - x, y1 - y) for (x, y), (x1, y1) in zip(hull, hull[1:])]
    return [(hull[0][0], 0, 0, -1), (hull[-1][0], 0, 0, 1)] + (
        segments or [(*hull[0], 1, 0)])


def _sequences(n: int, edges, costs: dict, first: bool = False) -> list:
    """The solutions at each e in ``edges``, ascending and possibly endless,
    of the system whose degree-i vertices cost ``costs[i]``, by e and then
    in the order ``feasible_sequences`` documents; with ``first``, the first
    one only.  The scan ends where 2e exceeds n times the largest degree.

    Counts are fixed from the largest degree down.  A count is tried only
    if the degrees after it can take the v vertices and degree sum s left
    within the budget n*e in the LP relaxation: s in [v*min, v*max] and
    spent + v*L(s/v) <= n*e, L the lower convex hull of their points
    (i, costs[i]).  No integer solution costs less than its relaxation, so
    none is lost; each hull side is linear in the count, so the passing
    counts are one interval.
    """
    if not costs:  # no open degree: only the vertexless graph solves it
        return [DegreeSequenceSolution((), 0, 0, 0)] if n == 0 and 0 in edges else []
    order = sorted(costs, reverse=True)
    # hulls[idx]: the sides of the hull of the degrees after order[idx]
    hulls = [_hull_lines([(i, costs[i]) for i in reversed(order[idx:])])
             for idx in range(1, len(order))]
    solutions = []
    counts = {}

    def rec(idx, v, s, spent):
        i, c = order[idx], costs[order[idx]]
        if idx == len(order) - 1:  # the rest take degree i
            if s == v * i and spent + v * c <= budget:
                counts[i] = v
                vec = tuple((d, counts.get(d, 0))
                            for d in range(order[-1], order[0] + 1))
                solutions.append(DegreeSequenceSolution(
                    vec, n, e, budget - spent - v * c))
                return first
            return False
        top, bottom = v, 0
        for x, y, dx, dy in hulls[idx]:  # each side's test: a + cnt*d <= 0
            a = (spent + v * y - budget) * dx + (s - v * x) * dy
            d = (c - y) * dx - (i - x) * dy
            if d > 0:
                top = min(top, -a // d)
            elif d < 0:
                bottom = max(bottom, -(-a // -d))
            elif a > 0:
                return False
            if top < bottom:
                return False
        for cnt in range(top, bottom - 1, -1):
            counts[i] = cnt
            if rec(idx + 1, v - cnt, s - cnt * i, spent + cnt * c):
                return True
        return False

    for e in edges:
        if 2 * e > n * order[0]:
            break
        budget = n * e
        if rec(0, n, 2 * e, 0):
            break
    solutions.sort(key=lambda sol: (sol.e, tuple(c for _, c in sol.counts)))
    return solutions


def min_edge_bound(k: int, n: int, table: EdgeBoundTable) -> BoundEntry:
    """Smallest e admitting a solution, or infinite if none exists.

    ``_sequences`` scans e = 0, 1, ... to its first solution; its hull
    bound cuts no integer solution, so that e is exact, and an e whose LP
    bound n*L(2e/n) exceeds n*e ends at the first degree's empty interval.
    """
    costs = _degree_costs(k, n, table)
    found = _sequences(n, itertools.count(), costs, first=True)
    if found:
        return BoundEntry(LOWER, found[0].e, "computed")
    return BoundEntry(INFINITE, provenance="computed")


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


@dataclass(frozen=True)
class ClosurePlan:
    """The input rows of one (3,k_plus_1;n,<=e) box, in degree order; a
    repeated degree or an m other than n - degree - 1 raises ValueError."""

    k_plus_1: int
    n: int
    e: int
    rows: tuple = ()

    def __post_init__(self):
        rows = tuple(sorted(self.rows, key=lambda r: r.degree))
        object.__setattr__(self, "rows", rows)
        repeated = sorted({a.degree for a, b in zip(rows, rows[1:])
                           if a.degree == b.degree})
        if repeated:
            raise ValueError(f"plan repeats row(s) of degree(s) {repeated}")
        bad = [r.degree for r in rows if r.m != self.n - r.degree - 1]
        if bad:
            raise ValueError(f"plan rows of degree(s) {bad} have m != n - degree - 1")

    def increments(self) -> dict:
        return {r.degree: r.increment for r in self.rows}

    def cover(self) -> tuple:
        """(degree, ceiling) of each row with a positive increment, in order."""
        return tuple((r.degree, r.ceiling) for r in self.rows if r.increment > 0)

    def survivors(self, table: EdgeBoundTable, first: bool = False) -> list:
        """The solutions at each e' <= e (with ``first``, the first one only)
        when a degree-i vertex costs i^2 + max(b_i, c_i + 1); none certifies
        the box.  b_i is ``table``'s bound (a gap raises MissingBoundError)
        for each degree it leaves feasible, whatever the plan's bases say;
        c_i is the ceiling of a row with a positive increment, else -1."""
        costs = _degree_costs(self.k_plus_1, self.n, table)
        for i, ceiling in self.cover():
            if i in costs:
                costs[i] = max(costs[i], i * i + ceiling + 1)
        return _sequences(self.n, range(self.e + 1), costs, first)

    CSV_HEADER = ["degree", "m", "base", "increment", "ceiling"]

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.CSV_HEADER)
        for r in self.rows:
            w.writerow([r.degree, r.m, r.base, r.increment, r.ceiling])
        return buf.getvalue()


@dataclass
class ClosureCheck:
    certified: bool
    survivors: list


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
    local subgraph with at least max(b_i, c_i + 1) edges (see
    ``ClosurePlan.survivors``), so its degree sequence would be one of
    ``plan.survivors(table)``.  A plan for another box raises ValueError.
    """
    if e < 0:
        raise ValueError(f"negative edge cap {e}")
    for name, got, want in (("class", plan.k_plus_1, k_plus_1),
                            ("order", plan.n, n), ("edge cap", plan.e, e)):
        if got != want:
            raise ValueError(f"plan is for {name} {got}, not {want}")
    survivors = plan.survivors(table)
    return ClosureCheck(not survivors, survivors)


def _survivors(sequences: list, t: dict) -> list:
    """(slack, counts) of the sequences a plan with increments ``t`` misses,
    given each sequence's slack under the zero plan and its nonzero degree
    counts: raising t_i lowers a sequence's slack by its count n_i."""
    out = []
    for slack, counts in sequences:
        slack -= sum(c * t[i] for i, c in counts.items())
        if slack >= 0:
            out.append((slack, counts))
    return out


def plan_closure(
    k_plus_1: int,
    n: int,
    e: int,
    table: EdgeBoundTable,
) -> ClosurePlan:
    """A minimal certified closure plan: greedy increments, then reverse
    delete.

    This is the one planning rule: ``ramsey3k plan`` prints its plan and
    ``Bootstrap`` certifies every level with it.  The greedy phase models
    input counts as growing twentyfold per unit of increment, so raising
    degree i's increment from t to t+1 costs 20^(t+1) - 20^t (20 from
    zero).  Each round raises the increment that kills the most surviving
    sequences per unit of that cost, breaking ties toward degrees near the
    average degree 2e/n, until the certificate holds.

    Reverse delete then visits the positive increments, largest first and
    ties to the smaller degree, and lowers each one by one while the
    certificate still holds.  Lowering an increment only adds surviving
    sequences, so an increment that could not drop when visited cannot drop
    later either: no single increment of the result can drop by one.

    The greedy phase only raises increments, so each round filters the
    last round's survivors; reverse delete filters all the zero plan's
    (``_survivors``).  ``closure_sufficiency_check`` certifies the result.
    Raises RuntimeError if no plan certifies.
    """
    costs = _degree_costs(k_plus_1, n, table)
    t = dict.fromkeys(costs, 0)
    avg = 2.0 * e / n if n else 0.0
    sequences = [(sol.slack, sol.nonzero())
                 for sol in _sequences(n, range(e + 1), costs)]

    alive = sequences
    for _ in range(PLAN_MAX_ROUNDS):
        if not alive:
            break
        killed, mass = dict.fromkeys(t, 0), dict.fromkeys(t, 0)
        for slack, counts in alive:
            for i, c in counts.items():
                mass[i] += c
                if slack < c:
                    killed[i] += 1
        best = None
        for i in costs:
            if mass[i] == 0:
                continue
            marginal = 20.0 ** (t[i] + 1) - (20.0 ** t[i] if t[i] else 0.0)
            score = (killed[i] + 0.01 * mass[i]) / marginal
            key = (score, -abs(i - avg), -i)
            if best is None or key > best[0]:
                best = (key, i)
        if best is None:
            raise RuntimeError("no finite plan: survivors use no positive count")
        i = best[1]
        t[i] += 1
        alive = [(slack - counts.get(i, 0), counts) for slack, counts in alive
                 if slack >= counts.get(i, 0)]
    else:
        raise RuntimeError(f"no certified plan within {PLAN_MAX_ROUNDS} rounds")

    # reverse delete
    for i in sorted((i for i in t if t[i]), key=lambda i: (-t[i], i)):
        while t[i]:
            t[i] -= 1
            if _survivors(sequences, t):
                t[i] += 1
                break
    plan = ClosurePlan(k_plus_1, n, e, tuple(
        PlanRow(i, n - i - 1, c - i * i, t[i], c - i * i + t[i] - 1)
        for i, c in costs.items()))
    if not closure_sufficiency_check(k_plus_1, n, e, plan, table).certified:
        raise RuntimeError(f"plan for ({k_plus_1};{n},<={e}) does not certify")
    return plan


# ---------------------------------------------------------------------------
# Propagation
# ---------------------------------------------------------------------------

def propagate_bounds(
    k_from: int,
    k_to: int,
    seed: EdgeBoundTable,
) -> EdgeBoundTable:
    """Fill levels k_from..k_to from the level below each; the seed holds
    level k_from - 1 up to its infinite boundary, as ``data``'s tables do.

    Closed-form exact entries are materialized first; beyond them every
    order gets max(closed form, solver bound) until the system has no
    solution, which places the infinite boundary (and hence the R(3,k)
    upper bound) for the level.
    """
    result = seed.copy()
    for k in range(k_from, k_to + 1):
        _fill_closed_level(result, k)
        n = 0
        while True:
            if result.has(k, n):
                if result.is_infinite(k, n):
                    break
                n += 1
                continue
            cf = closed_form_e(k, n)
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
    """Fill level k's gaps at the closed form's exact orders, a prefix 0..N."""
    n = 0
    while (cf := closed_form_e(k, n)).kind == EXACT:
        if not table.has(k, n):
            table.set(k, n, cf)
        n += 1


def r_upper(k: int, table: EdgeBoundTable) -> Optional[int]:
    """Smallest n with an infinite entry: an upper bound for R(3,k)."""
    return table.first_infinite(k)
