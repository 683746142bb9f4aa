"""Command-line surface.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 capacity
error.  Worker counts come from --workers, then RAMSEY_WORKERS, then the
machine's parallelism.
"""

from __future__ import annotations

import argparse
import sys

from . import data
from .degseq import (
    EXACT,
    INFINITE,
    ClosurePlan,
    EdgeBoundTable,
    closure_sufficiency_check,
    feasible_sequences,
    plan_closure,
    propagate_bounds,
    r_upper,
)
from .extend import edge_removal_closure, is_maximal_triangle_free
from .graphs import (CapacityError, Graph, GraphFormatError,
                     MembershipError, decode_graph6)
from .oracle import (
    ORACLE_CAP,
    add_edge_closure_check,
    brute_force_graphs,
    gv_consistency_check,
    verify_minimality,
)
from .pipeline import PRUNE_NAMES, JobManifest, ManifestError, run_manifest
from .store import GraphStore, StoreError, read_lines, render_count_table

USAGE_ERROR = 2
VERIFY_ERROR = 1
CAPACITY_ERROR = 3


def _load_table(path: str | None, max_level: int = 10) -> EdgeBoundTable:
    table = data.builtin_table(max_level)
    if path:
        with open(path) as fh:
            table.merge(EdgeBoundTable.from_csv(fh.read()), overwrite=True)
    return table


def cmd_etable(args) -> int:
    from .degseq import _fill_closed_level

    table = _load_table(args.seed, max_level=min(args.k, 10))
    top = max([lv for lv in table.levels() if lv >= 1], default=1)
    if args.k > top:
        table = propagate_bounds(top + 1, args.k, table)
    _fill_closed_level(table, args.k)
    rows = EdgeBoundTable()
    for n in range(args.n_from, args.n_to + 1):
        if table.has(args.k, n):
            rows.set(args.k, n, table.entry(args.k, n))
    text = rows.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bound = r_upper(args.k, table)
    if bound is not None:
        print(f"# first empty order: {bound}", file=sys.stderr)
    return 0


def cmd_degseq(args) -> int:
    table = _load_table(args.table)
    sols = feasible_sequences(args.k, args.n, args.e, table,
                              d_lo=args.dmin, d_hi=args.dmax)
    for sol in sols:
        print(sol)
    print(f"# {len(sols)} solutions", file=sys.stderr)
    return 0


def cmd_plan(args) -> int:
    table = _load_table(args.table)
    plan = plan_closure(args.k, args.n, args.e, table)
    check = closure_sufficiency_check(args.k, args.n, args.e, plan, table)
    text = plan.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"# certified: {check.certified}", file=sys.stderr)
    return 0 if check.certified else VERIFY_ERROR


def cmd_extend(args) -> int:
    no_prune = tuple(args.no_prune or ())
    for name in no_prune:
        if name not in PRUNE_NAMES:
            print(f"unknown pruning rule {name!r}; known: {PRUNE_NAMES}",
                  file=sys.stderr)
            return USAGE_ERROR
    manifest = JobManifest.read(args.manifest)
    if no_prune:
        manifest.no_prune = no_prune
        manifest.write(args.manifest)
    store = run_manifest(args.manifest, args.out, workers=args.workers,
                         allow_partial=args.allow_partial)
    print(f"# wrote {len(store)} graphs to {args.out}", file=sys.stderr)
    return 0


def cmd_closure(args) -> int:
    graphs = _read_graphs(args.mtf)
    for g in graphs:
        if not is_maximal_triangle_free(g):
            print("input contains a non-maximal graph", file=sys.stderr)
            return VERIFY_ERROR
    result = edge_removal_closure(graphs, args.k, e_floor=args.e_max)
    store = GraphStore(args.k, graphs[0].n if graphs else 0,
                       e_min=args.e_max or 0, complete=True,
                       certificate="edge-removal closure")
    for form, g in result.items():
        store.add(g, form)
    store.write(args.out)
    print(f"# wrote {len(store)} graphs to {args.out}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    if args.n > ORACLE_CAP:
        print(f"oracle capped at n={ORACLE_CAP}", file=sys.stderr)
        return CAPACITY_ERROR
    found = brute_force_graphs(args.n, args.k, args.e_max)
    store = GraphStore(args.k, args.n, 0, args.e_max, complete=True,
                       certificate="brute force")
    for form, g in found.items():
        store.add(g, form)
    store.write(args.out)
    print(f"# wrote {len(store)} graphs to {args.out}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    store = GraphStore.read(args.store, check=True)
    failures = []
    if args.minimality:
        for g in store.graphs():
            if not verify_minimality(g, args.k):
                failures.append("minimality")
                break
    if args.gv:
        ref = GraphStore.read(args.gv)
        if not gv_consistency_check(store.graphs(), args.k, ref.forms(),
                                    ref.n, ref.e_max):
            failures.append("gv-consistency")
    if args.add_edges:
        f, ref_path = args.add_edges
        ref = GraphStore.read(ref_path)
        if not add_edge_closure_check(store.graphs(), int(f), args.k,
                                      ref.forms(), n=store.n):
            failures.append("add-edge closure")
    if failures:
        print("FAILED: " + ", ".join(failures), file=sys.stderr)
        return VERIFY_ERROR
    print(f"# verified {len(store)} graphs", file=sys.stderr)
    return 0


def cmd_count(args) -> int:
    store = GraphStore.read(args.store)
    counts = {(store.n, e): c for e, c in store.counts().items()}
    sys.stdout.write(render_count_table(counts))
    return 0


def _read_graphs(path: str) -> list:
    return [decode_graph6(line) for line in read_lines(path)]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ramsey3k",
        description="triangle-free graphs with bounded independence number: "
                    "generation, bounds, verification")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("etable", help="closed forms + propagated bounds")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n-from", type=int, required=True)
    q.add_argument("--n-to", type=int, required=True)
    q.add_argument("--seed", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_etable)

    q = sub.add_parser("degseq", help="feasible degree sequences")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--e", type=int, required=True)
    q.add_argument("--dmin", type=int, default=None)
    q.add_argument("--dmax", type=int, default=None)
    q.add_argument("--table", default=None)
    q.set_defaults(func=cmd_degseq)

    q = sub.add_parser("plan", help="closure plan + certificate")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--e", type=int, required=True)
    q.add_argument("--table", default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_plan)

    q = sub.add_parser("extend", help="run a gluing manifest")
    q.add_argument("--manifest", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--workers", type=int, default=None)
    q.add_argument("--no-prune", action="append", metavar="RULE")
    q.add_argument("--allow-partial", action="store_true")
    q.set_defaults(func=cmd_extend)

    q = sub.add_parser("closure", help="edge-removal closure of mtf graphs")
    q.add_argument("--mtf", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--e-max", type=int, default=None,
                   help="lowest edge count kept while removing edges")
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_closure)

    q = sub.add_parser("oracle", help="brute-force enumeration (small n)")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--e-max", type=int, default=None)
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_oracle)

    q = sub.add_parser("verify", help="consistency-test battery")
    q.add_argument("--store", required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--minimality", action="store_true")
    q.add_argument("--gv", default=None, metavar="REF")
    q.add_argument("--add-edges", nargs=2, default=None, metavar=("F", "REF"))
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("count", help="edge-count histogram table")
    q.add_argument("--store", required=True)
    q.set_defaults(func=cmd_count)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return CAPACITY_ERROR
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ManifestError as exc:
        print(f"manifest error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except GraphFormatError as exc:
        print(f"bad graph6 input: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (StoreError, MembershipError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
