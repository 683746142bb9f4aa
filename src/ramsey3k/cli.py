"""Command-line surface.

Exit codes, for every command from the one table ``_ERRORS``: 0 success,
1 verification failure, 2 usage error, 3 capacity error.  Worker counts come
from --workers, then RAMSEY_WORKERS, then the machine's parallelism.
``plan`` and ``degseq`` cost a class-K box with ``data``'s table through level
K - 1, ``etable`` prints level K; --table/--seed rows enter before derivation.
"""

from __future__ import annotations

import argparse
import sys

from . import data
from .degseq import (
    EdgeBoundTable,
    MissingBoundError,
    derived_entry,
    feasible_sequences,
    plan_closure,
    r_upper,
)
from .extend import edge_removal_closure
from .graphs import (CapacityError, GraphFormatError, MembershipError,
                     decode_graph6)
from .oracle import (
    add_edge_closure_check,
    brute_force_graphs,
    gv_consistency_check,
    verify_minimality,
)
from .pipeline import ManifestError, run_manifest
from .store import GraphStore, StoreError, read_lines, render_count_table

USAGE_ERROR = 2
VERIFY_ERROR = 1
CAPACITY_ERROR = 3


def _load_table(path: str | None, level: int) -> EdgeBoundTable:
    if not path:
        return data.builtin_table(level)
    try:
        with open(path) as fh:
            return data.table_with(EdgeBoundTable.from_csv(fh.read()), level)
    except ValueError as exc:
        raise ValueError(f"bad bound table {path}: {exc}") from None


def cmd_etable(args) -> int:
    if args.n_from > args.n_to:
        raise ValueError(f"--n-from {args.n_from} is above --n-to {args.n_to}")
    table = _load_table(args.seed, args.k)
    rows = EdgeBoundTable()
    for n in range(args.n_from, args.n_to + 1):
        rows.set(args.k, n, derived_entry(table, args.k, n))
    text = rows.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    bound = r_upper(args.k, table)
    if bound is not None and bound <= args.n_to:
        print(f"# first empty order: {bound}", file=sys.stderr)
    return 0


def cmd_degseq(args) -> int:
    sols = feasible_sequences(args.k, args.n, args.e,
                              _load_table(args.table, args.k - 1),
                              d_lo=args.dmin, d_hi=args.dmax)
    for sol in sols:
        print(sol)
    print(f"# {len(sols)} solutions", file=sys.stderr)
    return 0


def cmd_plan(args) -> int:
    plan = plan_closure(args.k, args.n, args.e,
                        _load_table(args.table, args.k - 1))
    text = plan.to_csv()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print("# certified: True", file=sys.stderr)
    return 0


def cmd_extend(args) -> int:
    store = run_manifest(args.manifest, args.out, workers=args.workers,
                         allow_partial=args.allow_partial)
    print(f"# wrote {len(store)} graphs to {args.out}", file=sys.stderr)
    return 0


def cmd_closure(args) -> int:
    graphs = _read_graphs(args.mtf)
    if not graphs:
        raise ValueError(f"{args.mtf} holds no graphs")
    orders = sorted({g.n for g in graphs})
    if len(orders) > 1:
        raise ValueError(f"{args.mtf} mixes graph orders {orders}")
    result = edge_removal_closure(graphs, args.k, e_floor=args.e_max)
    store = GraphStore(args.k, graphs[0].n,
                       e_min=args.e_max or 0, complete=True,
                       certificate="edge-removal closure", lines=result)
    store.write(args.out)
    print(f"# wrote {len(store)} graphs to {args.out}", file=sys.stderr)
    return 0


def cmd_oracle(args) -> int:
    found = brute_force_graphs(args.n, args.k, args.e_max)
    store = GraphStore(args.k, args.n, 0, args.e_max, complete=True,
                       certificate="brute force", lines=found)
    store.write(args.out)
    print(f"# wrote {len(store)} graphs to {args.out}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    if args.k < 1:
        raise ValueError(f"class bound --k must be >= 1, got {args.k}")
    store = GraphStore.read(args.store, check=True, k=args.k)
    if store.k != args.k:
        raise StoreError(f"{args.store} holds k={store.k} members, not --k {args.k}")
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
                                      ref.forms(), n=ref.n):
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

    q = sub.add_parser("etable", help="closed forms + derived bounds")
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
    q.add_argument("--dmin", type=int, default=0)
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


# (error types, exit code, message prefix); the first match wins, so a
# subclass comes before its base
_ERRORS = (
    ((CapacityError,), CAPACITY_ERROR, "capacity error"),
    ((FileNotFoundError,), USAGE_ERROR, "missing file"),
    ((ManifestError,), USAGE_ERROR, "manifest error"),
    ((GraphFormatError,), USAGE_ERROR, "bad graph6 input"),
    ((StoreError, MembershipError), VERIFY_ERROR, "verification failed"),
    ((MissingBoundError, ValueError), USAGE_ERROR, "ramsey3k: error"),
    ((RuntimeError,), VERIFY_ERROR, "ramsey3k: error"),  # no certified plan
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for types, _, _ in _ERRORS for t in types) as exc:
        code, prefix = next((code, prefix) for types, code, prefix in _ERRORS
                            if isinstance(exc, types))
        print(f"{prefix}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
