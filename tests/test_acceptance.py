"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every expected value below is either published data shipped with the
package, a classical small fact re-derived by the independent oracle, or a
quantity frozen from an oracle run; tolerances are exact and time limits
are asserted.
"""

import math
import random
import time

import dataclasses
import pytest

from ramsey3k import data
from ramsey3k.canon import canonical_form
from ramsey3k.degseq import (
    EXACT,
    INFINITE,
    ClosurePlan,
    PlanRow,
    closure_sufficiency_check,
    feasible_sequences,
    propagate_bounds,
    r_upper,
)
from ramsey3k.extend import ExtensionTask, glue_extend
from ramsey3k.graphs import (
    ClassParams,
    Graph,
    circulant,
    deficiency_from_histogram,
    deficiency_graph,
    independence_number,
    is_triangle_free,
    validate_member,
)
from ramsey3k.oracle import brute_force_graphs, min_edge_count, verify_minimality
from ramsey3k.pipeline import Bootstrap, JobManifest

from conftest import min_degree_store, random_triangle_free


def report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE criterion {num}: {status} [{elapsed:.2f}s] {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_closed_forms():
    """etable output matches every non-bold published grid entry; < 1 s."""
    t0 = time.time()
    from ramsey3k.degseq import _fill_closed_level

    table = data.builtin_table(10)
    for k in range(3, 17):
        _fill_closed_level(table, k)
    grid = data.small_exact_table()
    flags = data.small_exact_flags()
    checked = 0
    for (k, n), entry in sorted(grid.entries.items()):
        if flags[(k, n)] == "b":
            continue
        mine = table.entry(k, n)
        if entry.kind == INFINITE:
            assert mine.kind == INFINITE, (k, n)
        else:
            assert mine.kind == EXACT and mine.value == entry.value, (k, n)
        checked += 1
    elapsed = time.time() - t0
    report(1, checked >= 200 and elapsed < 1.0,
           f"{checked} non-bold grid entries reproduced", elapsed)


def test_criterion_2_small_oracle():
    """brute force re-derives e(3,k,n) for n <= 11; <= 10 min."""
    t0 = time.time()
    grid = data.small_exact_table()
    checked = 0
    for (k, n), entry in sorted(grid.entries.items()):
        if n > 11:
            continue
        if entry.kind == INFINITE:
            assert brute_force_graphs(n, k, None) == {}, (k, n)
        else:
            got = min_edge_count(n, k, probe_cap=entry.value)
            assert got == entry.value, (k, n, got)
        checked += 1
    # spot values called out explicitly
    assert min_edge_count(8, 4) == 10
    assert min_edge_count(11, 5, probe_cap=15) == 15
    elapsed = time.time() - t0
    report(2, checked == 38 and elapsed < 600,
           f"{checked} published minimum edge counts re-derived", elapsed)


def test_criterion_3_degree_sequence_rows():
    """the fifteen published (3,10;42) rows with slacks; < 1 s."""
    t0 = time.time()
    table = data.builtin_table(10)
    rows = []
    for e in range(185, 190):
        rows += feasible_sequences(10, 42, e, table, d_lo=7, d_hi=9)
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
    elapsed = time.time() - t0
    report(3, got == want and len(rows) == 15 and elapsed < 1.0,
           "15 solution rows with exact slacks", elapsed)


def test_criterion_4_closure_certificates():
    """published plan certifies; restricted plan leaves one survivor; < 1 s."""
    t0 = time.time()
    table = data.builtin_table(10)

    def plan_from(k1, n, e, increments):
        rows = []
        for i, t in increments.items():
            m = n - i - 1
            base = table.bound_value(k1 - 1, m)
            rows.append(PlanRow(i, m, base, t, base + t - 1))
        return ClosurePlan(k1, n, e, rows)

    plan8 = plan_from(8, 25, 65, {2: 1, 3: 1, 4: 2, 5: 3, 6: 2, 7: 1})
    check8 = closure_sufficiency_check(8, 25, 65, plan8, table)

    plan9 = plan_from(9, 32, 108, {4: 10, 5: 5, 6: 4, 7: 4, 8: 1})
    check9 = closure_sufficiency_check(9, 32, 108, plan9, table)
    survivors = [(s.nonzero(), s.e) for s in check9.survivors]

    ok = (check8.certified and not check9.certified
          and survivors == [({6: 8, 7: 24}, 108)])
    elapsed = time.time() - t0
    report(4, ok and elapsed < 1.0,
           f"certificate + sole survivor {survivors}", elapsed)


def test_criterion_5_bound_propagation():
    """published high-level bound columns and the six R(3,k) bounds; < 10 s."""
    t0 = time.time()
    seed = data.builtin_table(10)
    table = propagate_bounds(11, 16, seed)
    pub = data.published_high_bounds()
    flags = data.published_high_flags()
    rows = 0
    for (k, n), entry in sorted(pub.entries.items()):
        mine = table.entry(k, n)
        if entry.kind == INFINITE:
            assert mine.kind == INFINITE, (k, n)
        else:
            assert mine.kind != INFINITE and mine.value == entry.value, \
                (k, n, flags.get((k, n)))
        rows += 1
    uppers = [r_upper(k, table) for k in range(11, 17)]
    ok = uppers == [50, 59, 68, 77, 87, 98]
    elapsed = time.time() - t0
    report(5, ok and rows >= 90 and elapsed < 10.0,
           f"{rows} published rows, R-bounds {uppers}", elapsed)


def test_criterion_6_generation(tmp_path):
    """full pipeline bootstrap reproduces the published counts; <= 60 min."""
    t0 = time.time()
    bs = Bootstrap(str(tmp_path / "bootstrap"))
    store = bs.store(7, 16, 23)
    counts = store.counts()
    want = {20: 2, 21: 15, 22: 201, 23: 2965}
    ok = counts == want
    # the census bytes every change keeps
    assert store.content_hash() == "3abce130cbe49d8d"
    # the engine glues exactly the rows the plan covers, in degree order
    manifest = JobManifest.read(bs.store_path(7, 16, 23) + ".manifest")
    assert [d for d, _ in manifest.inputs] == [2, 3, 4, 5]
    assert manifest.task_for(2).cover == manifest.plan.cover()
    # stretch targets (fast with the cache warm)
    st17 = bs.store(7, 17, 25)
    st18 = bs.store(7, 18, 30)
    stretch = (st17.counts().get(25) == 2 and st18.counts().get(30) == 1)
    elapsed = time.time() - t0
    report(6, ok and stretch and elapsed < 3600,
           f"counts {dict(sorted(counts.items()))}, stretch "
           f"(17,25)->{st17.counts().get(25)} (18,30)->{st18.counts().get(30)}",
           elapsed)


def test_criterion_7_circulant_witness():
    """the 35-vertex circulant: regular, extremal, edge-minimal; < 5 s."""
    t0 = time.time()
    g = circulant(35, {1, 7, 11, 16})
    ok = (all(g.degree(v) == 8 for v in range(35))
          and g.edge_count() == 140
          and is_triangle_free(g)
          and independence_number(g) == 8
          and validate_member(g, 9) == ClassParams(9, 35, 140)
          and verify_minimality(g, 9))
    elapsed = time.time() - t0
    report(7, ok and elapsed < 5.0,
           "8-regular, 140 edges, alpha 8, edge-minimal at bound 9", elapsed)


def test_criterion_8_property_suites(tmp_path):
    """canonical invariance, pruning neutrality, oracle equivalence,
    deficiency identity, infinity monotonicity; zero tolerated failures."""
    t0 = time.time()
    rng = random.Random(20260808)
    failures = []
    grid = data.small_exact_table()

    oracle_cache: dict = {}

    def oracle(n, k, e_max):
        key = (n, k, e_max)
        if key not in oracle_cache:
            oracle_cache[key] = brute_force_graphs(n, k, e_max)
        return oracle_cache[key]

    # -- canonical permutation invariance, 1000 random cases
    for i in range(1000):
        n = rng.randrange(0, 13)
        g = random_triangle_free(n, rng.uniform(0.1, 0.6), rng)
        perm = list(range(n))
        rng.shuffle(perm)
        if canonical_form(g) != canonical_form(g.permuted(perm)):
            failures.append(f"canon case {i}")
            break

    # -- pruning neutrality for the three recursion rules, hosts up to 10
    rules = ("prune_pair", "prune_ascending", "prune_edge_bound")
    battery = [
        (5, 3, ExtensionTask(k=3, d=2, e_max=11)),
        (7, 4, ExtensionTask(k=4, d=2, e_max=13)),
        (6, 4, ExtensionTask(k=4, d=3, e_max=14)),
        (8, 4, ExtensionTask(k=4, d=1, e_max=13)),
        (6, 5, ExtensionTask(k=5, d=4, e_max=11)),
        (10, 5, ExtensionTask(k=5, d=2, e_max=17)),
        (9, 5, ExtensionTask(k=5, d=3, e_max=16)),
        (10, 6, ExtensionTask(k=6, d=2, e_max=13)),
    ]
    for m, k_in, task in battery:
        cap = grid.bound_value(k_in, m) + 3 if grid.has(k_in, m) else 6
        hosts = list(oracle(m, k_in, cap).values())
        for h in hosts:
            base = set(glue_extend(h, task))
            for field in rules:
                off = dataclasses.replace(task, **{field: False})
                if set(glue_extend(h, off)) != base:
                    failures.append(f"neutrality {field} m={m} k={k_in}")

    # -- oracle equivalence of the minimum-degree rows glued through
    # run_manifest; classes with a binding independence constraint run at
    # the full edge range, the near-vacuous ones at the published-regime
    # band above the minimum
    classes = [(k, n, None) for n in range(3, 9) for k in range(3, n + 1)]
    classes += [(k, n, None) for n in (9, 10) for k in range(3, 6)]
    for n in (9, 10):
        for k in range(6, n + 1):
            classes.append((k, n, grid.bound_value(k, n) + 3))
    for k, n, e_cap in classes:
        e_max = e_cap if e_cap is not None else n * (n - 1) // 2
        want = set(oracle(n, k, e_max))
        box = tmp_path / f"c{k}_n{n}_e{e_max}"
        box.mkdir()
        got = min_degree_store(str(box), k, n, e_max, oracle).forms()
        if got != want:
            failures.append(f"oracle-equivalence (3,{k};{n},<={e_max})")

    # -- deficiency identity on every corpus graph
    table = data.builtin_table(10)
    corpus = []
    for (k, n, cap) in [(3, 5, None), (4, 7, None), (4, 8, None),
                        (5, 9, 14), (6, 10, 12)]:
        corpus += [(k, g) for g in oracle(n, k, cap).values()]
    for k, g in corpus:
        vertex_sum = deficiency_graph(g, k, table)
        histogram = deficiency_from_histogram(
            g.n, g.edge_count(), g.degree_histogram(), k, table)
        if vertex_sum != histogram or histogram < 0:
            failures.append(f"deficiency identity k={k} {g!r}")

    # -- infinity monotonicity of every propagated level
    prop = propagate_bounds(11, 16, data.builtin_table(10))
    for k in sorted({k for k, _ in prop.entries}):
        first = prop.first_infinite(k)
        if first is None:
            continue
        for (kk, nn), entry in prop.entries.items():
            if kk == k and nn > first and entry.kind != INFINITE:
                failures.append(f"infinity monotonicity k={k} n={nn}")

    elapsed = time.time() - t0
    report(8, not failures, f"failures: {failures or 'none'}", elapsed)
