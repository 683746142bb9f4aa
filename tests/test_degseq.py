import hashlib
import itertools
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ramsey3k import data
from ramsey3k.degseq import (
    EXACT,
    INFINITE,
    LOWER,
    BoundEntry,
    ClosurePlan,
    EdgeBoundTable,
    InfiniteBoundError,
    MissingBoundError,
    PlanRow,
    _degree_costs,
    _fill_closed_level,
    _sequences,
    _survivors,
    closed_form_e,
    closure_sufficiency_check,
    feasible_sequences,
    min_edge_bound,
    plan_closure,
    propagate_bounds,
    r_upper,
)


@pytest.fixture(scope="module")
def builtin():
    return data.builtin_table(10)


@pytest.fixture(scope="module")
def propagated(builtin):
    return propagate_bounds(11, 16, builtin)


class TestClosedForm:
    def test_spec_points(self):
        assert closed_form_e(11, 20) == BoundEntry(EXACT, 10, "closed form")
        assert closed_form_e(9, 24) == BoundEntry(EXACT, 40, "closed form")
        assert closed_form_e(7, 18) == BoundEntry(EXACT, 30, "closed form")

    def test_divisible_extension(self):
        # k = 4t, n = 13t stays exact one step beyond the usual range
        assert closed_form_e(5, 13) == BoundEntry(EXACT, 26, "closed form")
        assert closed_form_e(9, 26) == BoundEntry(EXACT, 52, "closed form")
        assert closed_form_e(13, 39) == BoundEntry(EXACT, 78, "closed form")
        assert closed_form_e(13, 40).kind == LOWER  # first order past the range

    def test_matches_published_grid(self):
        grid = data.small_exact_table()
        flags = data.small_exact_flags()
        for (k, n), entry in sorted(grid.entries.items()):
            cf = closed_form_e(k, n)
            if flags[(k, n)] == "b" or entry.kind == INFINITE:
                assert cf.kind != EXACT, (k, n)
            else:
                assert cf.kind == EXACT and cf.value == entry.value, (k, n)

    def test_universal_lower_bound(self):
        e = closed_form_e(11, 40)
        assert e.kind == LOWER and e.value == 6 * 40 - 13 * 10

    def test_degenerate_levels(self):
        assert closed_form_e(2, 2).value == 1
        assert closed_form_e(2, 3).kind == LOWER
        assert closed_form_e(1, 0).value == 0
        assert closed_form_e(3, 6).kind == LOWER  # empty class, lower only
        assert closed_form_e(4, 9).kind == LOWER

    @pytest.mark.parametrize("k", range(1, 65))
    def test_fill_sets_exactly_the_exact_prefix(self, k):
        table = EdgeBoundTable()
        _fill_closed_level(table, k)
        filled = sorted(n for kk, n in table.entries if kk == k)
        exact = [n for n in range(4 * k + 8) if closed_form_e(k, n).kind == EXACT]
        assert filled == exact == list(range(len(exact)))


def naive_sequences(k, n, e, costs, degrees):
    """Independent reimplementation: plain composition filter."""
    out = []
    lo, hi = min(degrees), max(degrees)
    span = [d for d in range(lo, hi + 1)]
    def rec(i, left, acc):
        if i == len(span) - 1:
            if span[i] in degrees or left == 0:
                yield acc + (left,)
            return
        for c in range(left + 1):
            yield from rec(i + 1, left - c, acc + (c,))
    for vec in rec(0, n, ()):
        ok = True
        s = 0
        cost = 0
        for d, c in zip(span, vec):
            if c and d not in degrees:
                ok = False
                break
            s += d * c
            cost += c * costs.get(d, 0)
        if not ok or s != 2 * e:
            continue
        if n * e - cost >= 0:
            out.append(vec)
    return sorted(out)


class TestSolver:
    def test_table3_rows(self, builtin):
        rows = []
        for e in range(185, 190):
            rows += feasible_sequences(10, 42, e, builtin, d_lo=7, d_hi=9)
        got = {(*(c for _, c in s.counts), s.e, s.slack) for s in rows}
        want = {
            (0, 8, 34, 185, 24), (1, 6, 35, 185, 25), (2, 4, 36, 185, 26),
            (3, 2, 37, 185, 27), (4, 0, 38, 185, 28),
            (0, 6, 36, 186, 60), (1, 4, 37, 186, 61), (2, 2, 38, 186, 62),
            (3, 0, 39, 186, 63),
            (0, 4, 38, 187, 96), (1, 2, 39, 187, 97), (2, 0, 40, 187, 98),
            (0, 2, 40, 188, 132), (1, 0, 41, 188, 133),
            (0, 0, 42, 189, 168),
        }
        assert got == want and len(rows) == 15

    def test_unique_solutions(self, builtin, propagated):
        sols = feasible_sequences(11, 39, 117, propagated)
        assert len(sols) == 1 and sols[0].nonzero() == {6: 39}
        sols = feasible_sequences(11, 48, 222, propagated)
        assert len(sols) == 1 and sols[0].nonzero() == {9: 36, 10: 12}

    def test_matches_naive(self, builtin):
        for (k, n, e, d_lo, d_hi) in [
            (10, 42, 186, 7, 9),
            (8, 25, 60, 2, 6),
            (6, 14, 22, 1, 5),
            (5, 12, 21, 0, 4),
        ]:
            degrees = []
            costs = {}
            for i in range(d_lo, d_hi + 1):
                entry = builtin.entry(k - 1, n - i - 1)
                if entry.kind != INFINITE:
                    degrees.append(i)
                    costs[i] = i * i + entry.value
            got = feasible_sequences(k, n, e, builtin, d_lo=d_lo, d_hi=d_hi)
            lo, hi = min(degrees), max(degrees)
            got_vecs = sorted(tuple(c for _, c in s.counts) for s in got)
            assert got_vecs == naive_sequences(k, n, e, costs, set(degrees))

    def test_deterministic_order(self, builtin):
        a = feasible_sequences(10, 42, 185, builtin, d_lo=7, d_hi=9)
        b = feasible_sequences(10, 42, 185, builtin, d_lo=7, d_hi=9)
        assert [s.counts for s in a] == [s.counts for s in b]
        vecs = [tuple(c for _, c in s.counts) for s in a]
        assert vecs == sorted(vecs)

    def test_missing_entry_is_hard_error(self):
        t = EdgeBoundTable()
        t.set(4, 5, BoundEntry(EXACT, 2, "test"))
        with pytest.raises(MissingBoundError):
            feasible_sequences(5, 9, 7, t)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.integers(0, 5), st.integers(0, 60), min_size=1),
           st.integers(0, 8), st.integers(0, 20))
    @example({0: 0, 1: 30, 2: 4, 3: 50, 4: 16}, 6, 12)  # 1 and 3 off the hull
    def test_sequences_match_naive(self, costs, n, e):
        # random costs are mostly not convex in the degree, so the LP hull
        # drops some of the degrees' points
        hi = n * max(costs) // 2
        got = [tuple(c for _, c in sol.counts) for sol in _sequences(n, (e,), costs)]
        assert got == naive_sequences(None, n, e, costs, set(costs))
        first = _sequences(n, range(hi + 1), costs, first=True)
        want = next((e for e in range(hi + 1)
                     if naive_sequences(None, n, e, costs, set(costs))), None)
        assert [sol.e for sol in first] == ([] if want is None else [want])

    def test_parity_and_sums(self, builtin):
        for sol in feasible_sequences(8, 25, 65, builtin):
            total = sum(c for _, c in sol.counts)
            degsum = sum(d * c for d, c in sol.counts)
            assert total == 25 and degsum == 2 * sol.e and sol.slack >= 0

    def test_empty_system_has_the_empty_solution(self, builtin):
        # at n = 0 no degree is open, and the vertexless graph solves the
        # system at e = 0 only
        sols = feasible_sequences(3, 0, 0, builtin)
        assert [str(sol) for sol in sols] == ["[empty | e=0, slack=0]"]
        assert feasible_sequences(3, 0, 1, builtin) == []
        assert min_edge_bound(3, 0, builtin) == BoundEntry(LOWER, 0, "computed")
        assert ClosurePlan(3, 0, 0).survivors(builtin) == sols
        with pytest.raises(RuntimeError, match="no finite plan"):
            plan_closure(3, 0, 0, builtin)


class TestMinEdgeBound:
    def test_published_points(self, builtin, propagated):
        # the published level-10 row at n=41 is 172, but that value also
        # used extension computations; the pure degree-sequence system is
        # satisfiable at 171 (n8=27, n9=14 has slack 11), so the solver's
        # answer is 171 and the stronger 172 ships as published data
        assert min_edge_bound(10, 41, builtin).value == 171
        assert builtin.entry(10, 41).value == 172
        assert min_edge_bound(11, 50, propagated).kind == INFINITE
        assert min_edge_bound(12, 55, propagated).value == 269

    def test_agrees_with_scan(self, builtin):
        for (k, n) in [(6, 14), (7, 16), (8, 25), (10, 38), (11, 34)]:
            table = propagate_bounds(11, 11, builtin) if k == 11 else builtin
            b = min_edge_bound(k, n, table)
            assert feasible_sequences(k, n, b.value, table), (k, n)
            for e in range(max(0, b.value - 4), b.value):
                assert not feasible_sequences(k, n, e, table), (k, n, e)

    def test_matches_naive_first_edge_count(self, builtin):
        # every order of levels 3..6 up to R(3,k), against the first e at
        # which the brute-force filter has a solution
        for k in range(3, 7):
            for n in range(1, builtin.first_infinite(k) + 1):
                costs = _degree_costs(k, n, builtin)
                first = next((e for e in range(n * max(costs) // 2 + 1)
                              if naive_sequences(k, n, e, costs, set(costs))),
                             None) if costs else None
                got = min_edge_bound(k, n, builtin)
                if first is None:
                    assert got.kind == INFINITE, (k, n)
                else:
                    assert got == BoundEntry(LOWER, first, "computed"), (k, n)

    def test_weaker_table_never_raises_bound(self, builtin):
        weak = builtin.copy()
        for (k, n), entry in list(weak.entries.items()):
            if k == 9 and entry.kind == EXACT and entry.value > 2:
                weak.entries[(k, n)] = BoundEntry(LOWER, entry.value - 2, "weak")
        for n in (35, 38, 41):
            assert (min_edge_bound(10, n, weak).value
                    <= min_edge_bound(10, n, builtin).value)


def make_plan(k_plus_1, n, e, table, increments):
    rows = []
    for i, t in increments.items():
        m = n - i - 1
        base = table.bound_value(k_plus_1 - 1, m)
        rows.append(PlanRow(i, m, base, t, base + t - 1))
    return ClosurePlan(k_plus_1, n, e, rows)


class TestClosure:
    def test_published_plan_certifies(self, builtin):
        plan = make_plan(8, 25, 65, builtin,
                         {2: 1, 3: 1, 4: 2, 5: 3, 6: 2, 7: 1})
        bases = {r.degree: r.base for r in plan.rows}
        assert bases[2] == 60 and bases[7] == 25
        check = closure_sufficiency_check(8, 25, 65, plan, builtin)
        assert check.certified

    def test_zero_increments_fail(self, builtin):
        plan = make_plan(8, 25, 65, builtin, {i: 0 for i in range(2, 8)})
        check = closure_sufficiency_check(8, 25, 65, plan, builtin)
        assert not check.certified
        assert check.survivors

    def test_restricted_survivor(self, builtin):
        plan = make_plan(9, 32, 108, builtin, {4: 10, 5: 5, 6: 4, 7: 4, 8: 1})
        check = closure_sufficiency_check(9, 32, 108, plan, builtin)
        assert not check.certified
        assert len(check.survivors) == 1
        assert check.survivors[0].nonzero() == {6: 8, 7: 24}
        assert check.survivors[0].e == 108

    def test_plan_gap_costs_the_table_entry(self, builtin, rng):
        # a degree without a row costs its table entry, as an increment-0
        # row of that degree does, so dropping such a row changes nothing
        plan = plan_closure(8, 25, 65, builtin)
        assert plan.increments()[7] == 0
        gap = ClosurePlan(8, 25, 65, [r for r in plan.rows if r.degree != 7])
        assert closure_sufficiency_check(8, 25, 65, gap, builtin).certified
        for _ in range(6):
            t = {i: rng.choice([0, 0, 1, 2, 3]) for i in range(2, 7)}
            with_row = make_plan(8, 25, 65, builtin, {**t, 7: 0})
            without = make_plan(8, 25, 65, builtin, t)
            assert without.survivors(builtin) == with_row.survivors(builtin), t

    def test_plan_of_another_order_is_error(self, builtin):
        plan = make_plan(8, 25, 65, builtin, {2: 1, 3: 1, 4: 2, 5: 3, 6: 2, 7: 1})
        with pytest.raises(ValueError, match="order 25, not 26"):
            closure_sufficiency_check(8, 26, 65, plan, builtin)

    def test_plan_of_another_box_is_error(self, builtin):
        plan = make_plan(8, 25, 65, builtin, {2: 1, 3: 1, 4: 2, 5: 3, 6: 2, 7: 1})
        with pytest.raises(ValueError, match="edge cap 65, not 60"):
            closure_sufficiency_check(8, 25, 60, plan, builtin)
        with pytest.raises(ValueError, match="class 8, not 9"):
            closure_sufficiency_check(9, 25, 65, plan, builtin)

    def test_plan_row_the_table_rules_out_is_ignored(self, builtin):
        # e(3,7,23) is infinite, so no (8;25)-graph has a vertex of degree 1
        # and a degree-1 row leaves no survivor of its own
        plan = make_plan(8, 25, 65, builtin, {2: 1, 3: 1, 4: 2, 5: 3, 6: 2, 7: 1})
        odd = ClosurePlan(8, 25, 65, plan.rows + (PlanRow(1, 23, 0, 1, 0),))
        assert odd.survivors(builtin) == plan.survivors(builtin) == []
        assert closure_sufficiency_check(8, 25, 65, odd, builtin).certified

    def test_survivors_stop_at_the_largest_degree_sum(self, builtin):
        # no sequence has 2e above n times the largest open degree, so an
        # edge cap far above it scans no further
        rows = plan_closure(3, 5, 5, builtin).rows
        start = time.perf_counter()
        assert ClosurePlan(3, 5, 10 ** 8, rows).survivors(builtin) == []
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("box", [(7, 16, 23), (8, 25, 65), (9, 27, 61)])
    def test_survivors_match_feasible_sequences(self, builtin, rng, box):
        # the plan's own solver agrees with the public one run on a table
        # whose covered rows are raised to max(entry, ceiling + 1), whatever
        # the bases: here they lie up to five edges below the entry or two
        # above it, so that some ceilings lie below it, and a row of a
        # degree the table rules out counts for nothing
        k1, n, e = box

        def expected(plan):
            raised = builtin.copy()
            for i, ceiling in plan.cover():
                entry = builtin.entry(k1 - 1, n - i - 1)
                if entry.kind != INFINITE:
                    raised.set(k1 - 1, n - i - 1, BoundEntry(
                        LOWER, max(entry.value, ceiling + 1)))
            return [sol for e_prime in range(e + 1)
                    for sol in feasible_sequences(k1, n, e_prime, raised)]

        degrees = [r.degree for r in plan_closure(*box, builtin).rows]
        for _ in range(6):
            t = {i: rng.choice([0, 0, 1, 2, 3, 5]) for i in range(k1)}
            exact = make_plan(*box, builtin, {i: t[i] for i in degrees})
            assert exact.survivors(builtin) == expected(exact), t
            rows = []
            for i in range(k1):
                entry = builtin.entry(k1 - 1, n - i - 1)
                base = (max(0, entry.value + rng.randint(-5, 2))
                        if entry.kind != INFINITE else 2)
                if rng.random() < 0.8:
                    rows.append(PlanRow(i, n - i - 1, base, t[i], base + t[i] - 1))
            plan = ClosurePlan(k1, n, e, rows)
            assert plan.survivors(builtin) == expected(plan), plan.rows

    def test_plan_closure_certifies(self, builtin):
        for (k1, n, e) in [(8, 25, 65), (7, 16, 23), (6, 13, 17)]:
            plan = plan_closure(k1, n, e, builtin)
            assert closure_sufficiency_check(k1, n, e, plan, builtin).certified

    @pytest.mark.parametrize("box, increments", [
        ((7, 16, 23), {2: 1, 3: 4, 4: 3, 5: 1}),
        ((8, 25, 65), {4: 1, 5: 3, 6: 2}),
        ((9, 27, 61), {4: 2, 5: 2}),
    ])
    def test_plan_closure_pinned(self, builtin, box, increments):
        plan = plan_closure(*box, builtin)
        assert {d: t for d, t in plan.increments().items() if t} == increments

    def test_cover_lists_the_positive_rows(self, builtin):
        plan = plan_closure(7, 16, 23, builtin)
        bases = {r.degree: r.base for r in plan.rows}
        increments = {2: 1, 3: 4, 4: 3, 5: 1}
        assert plan.cover() == tuple((d, bases[d] + t - 1)
                                     for d, t in increments.items())
        assert ClosurePlan(7, 16, 23, [r for r in plan.rows
                                       if not r.increment]).cover() == ()

    @pytest.mark.parametrize("box", [(7, 16, 23), (8, 25, 65), (9, 27, 61)])
    def test_survivors_filter_zero_plan(self, builtin, rng, box):
        # a plan's survivors are the zero plan's with slack - sum n_i t_i >= 0
        degrees = [r.degree for r in plan_closure(*box, builtin).rows]
        zero = closure_sufficiency_check(
            *box, make_plan(*box, builtin, dict.fromkeys(degrees, 0)), builtin)
        sequences = [(sol.slack, sol.nonzero()) for sol in zero.survivors]
        for _ in range(12):
            t = {i: rng.choice([0, 0, 1, 2, 3, 5]) for i in degrees}
            check = closure_sufficiency_check(
                *box, make_plan(*box, builtin, t), builtin)
            assert _survivors(sequences, t) == [
                (sol.slack, sol.nonzero()) for sol in check.survivors], t

    def test_plan_closure_minimal(self, builtin):
        # every b-flagged grid box, then the oracle-sized boxes up to three
        # edges above the minimum
        grid = data.small_exact_table()
        boxes = [(k, n, grid.entry(k, n).value)
                 for (k, n), flag in sorted(data.small_exact_flags().items())
                 if flag == "b"]
        assert len(boxes) == 20
        for k in range(3, 7):
            for n in range(1, 13):
                if builtin.is_infinite(k, n):
                    break
                low = builtin.bound_value(k, n)
                boxes += [(k, n, e) for e in range(low, low + 4)]
        for box in boxes:
            plan = plan_closure(*box, builtin)
            assert closure_sufficiency_check(*box, plan, builtin).certified, box
            for row in plan.rows:
                if not row.increment:
                    continue
                smaller = make_plan(*box, builtin, {
                    **plan.increments(), row.degree: row.increment - 1})
                assert not closure_sufficiency_check(
                    *box, smaller, builtin).certified, (box, row.degree)

    def test_plans_are_pinned(self, builtin):
        # the 20 b-flagged grid boxes, then (10;30,<=66) and (10;31,<=73)
        grid = data.small_exact_table()
        boxes = [(k, n, grid.entry(k, n).value)
                 for (k, n), flag in sorted(data.small_exact_flags().items())
                 if flag == "b"] + [(10, 30, 66), (10, 31, 73)]
        text = "".join(plan_closure(*box, builtin).to_csv() for box in boxes)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "47028a48eb6252e01d06750bcd8a6a91a45cc9e56ca49baa9440b286baf0e440")


class TestPropagation:
    def test_published_columns(self, propagated):
        pub = data.published_high_bounds()
        for (k, n), entry in sorted(pub.entries.items()):
            mine = propagated.entry(k, n)
            if entry.kind == INFINITE:
                assert mine.kind == INFINITE, (k, n)
            else:
                assert mine.kind != INFINITE and mine.value == entry.value, (k, n)

    def test_t_rows_use_closed_form(self, propagated):
        flags = data.published_high_flags()
        for (k, n), flag in flags.items():
            if flag == "t":
                assert propagated.entry(k, n).provenance == "closed form"

    def test_r_upper_chain(self, propagated):
        for k, want in [(11, 50), (12, 59), (13, 68), (14, 77), (15, 87), (16, 98)]:
            assert r_upper(k, propagated) == want

    def test_r_upper_small_seed(self, builtin):
        assert r_upper(3, builtin) == 6
        assert r_upper(8, builtin) == 28

    def test_infinity_monotone(self, propagated):
        for k in sorted({k for k, _ in propagated.entries}):
            first = propagated.first_infinite(k)
            if first is None:
                continue
            for (kk, nn), entry in propagated.entries.items():
                if kk == k and nn > first:
                    assert entry.kind == INFINITE

    def test_propagated_table_is_pinned(self, propagated):
        # levels 11..16 as propagated over the bundled table, with
        # R(3,11..16) <= 50, 59, 68, 77, 87, 98
        assert hashlib.sha256(propagated.to_csv().encode()).hexdigest() == (
            "7c2b0597d63d3d8d3264073baadb4108fa76d9c44f5b4c8565d0a4741a0be316")

    def test_builtin_table_levels(self):
        # a level up to 10 holds the same entries whatever level the table is
        # built through, each call returns a table of its own, and a user
        # row is merged before propagation, so the level above sees it
        top = data.builtin_table(10)
        for level in range(1, 11):
            assert data.builtin_table(level).entries == {
                key: e for key, e in top.entries.items() if key[0] <= level}
        top.set(10, 38, BoundEntry(LOWER, 145, "custom"))
        assert data.builtin_table(10).bound_value(10, 38) == 139
        raised = data.table_with(top, 11)
        assert [raised.bound_value(11, n) for n in (48, 49)] == [224, 245]
        bundled = data.builtin_table(11)
        assert [bundled.bound_value(11, n) for n in (48, 49)] == [222, 237]

    def test_unknown_marker(self):
        t = EdgeBoundTable()
        t.set(5, 10, BoundEntry(EXACT, 10, "test"))
        assert r_upper(5, t) is None


class TestEdgeBoundTable:
    def test_csv_roundtrip(self, builtin):
        back = EdgeBoundTable.from_csv(builtin.to_csv())
        assert back.entries == builtin.entries

    def test_monotone_infinity_enforced(self):
        t = EdgeBoundTable()
        t.set(5, 14, BoundEntry(INFINITE, provenance="test"))
        with pytest.raises(ValueError):
            t.set(5, 15, BoundEntry(EXACT, 3, "test"))

    def test_finite_entry_at_boundary_rejected(self):
        t = EdgeBoundTable()
        t.set(3, 6, BoundEntry(INFINITE, provenance="test"))
        with pytest.raises(ValueError, match="at or above"):
            t.set(3, 6, BoundEntry(EXACT, 7, "test"))
        assert t.is_infinite(3, 6) and t.first_infinite(3) == 6

    def test_implied_infinity(self):
        t = EdgeBoundTable()
        t.set(5, 14, BoundEntry(INFINITE, provenance="test"))
        assert t.entry(5, 20).kind == INFINITE
        with pytest.raises(MissingBoundError):
            t.entry(5, 13)

    def test_infinite_value_error(self):
        t = EdgeBoundTable()
        t.set(4, 9, BoundEntry(INFINITE, provenance="test"))
        with pytest.raises(InfiniteBoundError):
            t.bound_value(4, 9)

    def test_bad_bundled_header(self, tmp_path, monkeypatch):
        # a typed error, which python -O keeps, unlike an assert
        (tmp_path / "t.csv").write_text("k,n,kind,value\n3,3,exact,0\n")
        monkeypatch.setattr(data.resources, "files", lambda package: tmp_path)
        with pytest.raises(ValueError, match="t.csv: unexpected header"):
            data._read("t.csv")


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 9), st.integers(6, 18), st.integers(2, 30))
def test_solver_naive_property(k, n, e):
    table = data.builtin_table(10)
    try:
        got = feasible_sequences(k, n, e, table, d_lo=0,
                                 d_hi=min(k - 1, 4))
    except MissingBoundError:
        return
    degrees = []
    costs = {}
    for i in range(0, min(k - 1, 4) + 1):
        if n - i - 1 < 0 or not table.has(k - 1, n - i - 1):
            return
        entry = table.entry(k - 1, n - i - 1)
        if entry.kind != INFINITE:
            degrees.append(i)
            costs[i] = i * i + entry.value
    if not degrees:
        assert got == []
        return
    got_vecs = sorted(tuple(c for _, c in s.counts) for s in got)
    assert got_vecs == naive_sequences(k, n, e, costs, set(degrees))
