"""Batch orchestration: job manifests, sharded extension runs, and the
level-by-level bootstrap that regenerates complete graph classes from the
bottom of the hierarchy.

A manifest binds one target class box to per-degree input files and, as its
certificate, the closure plan proving that those inputs suffice.  The plan
certifies itself when read: ``ClosurePlan.survivors`` costs it with
``data.builtin_table(target_k - 1)``, and a first survivor or a bound the
table lacks refuses the manifest.  Each shard glues its hosts and writes
its own sorted part file, named by the shard and a hash of the task and input
lines it was computed from; a run deletes every part no current shard names,
computes only the missing ones and never writes its manifest, so an
interrupted run resumes without recomputation, a stale part is never trusted,
and the merged output is byte-identical regardless of worker count or
interruption points.

Canonical-hub acceptance is the one dedup across inputs: under a plan the
parts are disjoint, and the merge of the sorted parts checks it, raising on
a repeated line.  Without the rule's cover (no plan, or the rule switched
off) the merge drops repeats instead.  Every file is read and written
through ``store``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import heapq
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from . import data
from .canon import canonical_form
from .degseq import (
    EXACT,
    INFINITE,
    BoundEntry,
    ClosurePlan,
    EdgeBoundTable,
    MissingBoundError,
    PlanRow,
    min_edge_bound,
    plan_closure,
)
from .extend import ExtensionTask, glue_extend
from .graphs import Graph, decode_graph6
from .store import GraphStore, StoreError, read_lines, read_records, write_lines

# input lines per shard.  Part keys hash the task and the chunk, not this
# size, so it never changes a store; a resumed run reuses the parts of an
# earlier run only while it stays the same.
SHARD_SIZE = 500
# manifest and CLI names of the pruning rules: the ExtensionTask toggles
# without their "prune_" prefix
PRUNE_NAMES = tuple(f.name[len("prune_"):]
                    for f in dataclasses.fields(ExtensionTask)
                    if f.name.startswith("prune_"))


def worker_count(requested: Optional[int] = None) -> int:
    """The requested count, else RAMSEY_WORKERS, else the CPU count; a
    count below 1 or a RAMSEY_WORKERS that is not an integer raises
    ValueError."""
    source = "worker count"
    if requested is None:
        env = os.environ.get("RAMSEY_WORKERS")
        if not env:
            return os.cpu_count() or 1
        source = "RAMSEY_WORKERS"
        try:
            requested = int(env)
        except ValueError:
            raise ValueError(f"RAMSEY_WORKERS={env!r} is not an integer") from None
    if requested < 1:
        raise ValueError(f"{source} must be at least 1, got {requested}")
    return requested


class ManifestError(RuntimeError):
    pass


# parsers of the single-valued manifest keys; with plan_rows= (the plan=
# count) and the repeated input= and plan= lines they are every key a
# manifest may carry
_SCALARS = {
    "target_k": int, "n": int, "e_max": int,
    "no_prune": lambda v: tuple(x for x in v.split(",") if x),
}


@dataclass
class JobManifest:
    target_k: int
    n: int
    e_max: int
    no_prune: tuple = ()
    inputs: list = field(default_factory=list)       # (degree, path)
    plan: Optional[ClosurePlan] = None   # the closure certificate, if any

    def task_for(self, degree: int) -> ExtensionTask:
        toggles = {f"prune_{name}": False for name in self.no_prune}
        # a plan's input rows cover every output, which is what lets a leaf
        # be kept only from its canonical covered vertex
        return ExtensionTask(
            k=self.target_k - 1,
            d=degree,
            e_max=self.e_max,
            cover=self.plan.cover() if self.plan is not None else (),
            **toggles,
        )

    def write(self, path: str) -> None:
        lines = [
            f"target_k={self.target_k}",
            f"n={self.n}",
            f"e_max={self.e_max}",
            f"no_prune={','.join(self.no_prune)}",
        ]
        for degree, p in self.inputs:
            lines.append(f"input={degree}:{p}")
        if self.plan is not None:
            lines.append(f"plan_rows={len(self.plan.rows)}")
            for r in self.plan.rows:
                lines.append(
                    f"plan={r.degree},{r.m},{r.base},{r.increment},{r.ceiling}")
        write_lines(path, lines)

    @classmethod
    def read(cls, path: str) -> "JobManifest":
        """Parse a manifest; a missing, malformed, unknown or repeated line, an
        input degree outside 0..target_k-1, plan rows ``ClosurePlan`` rejects,
        that leave a survivor under ``data.builtin_table(target_k - 1)`` (or
        need a bound it lacks) or with a positive increment and no input, or
        ``plan=`` lines without a ``plan_rows=`` count or other than it says
        raise ManifestError.  A manifest has a plan, and so is certified,
        exactly when it has the count: it tells an empty plan from lost lines."""
        fields: dict = {}
        inputs = []
        plan_rows = []
        row_count = None
        try:
            records = read_records(path)
        except StoreError as exc:
            raise ManifestError(str(exc)) from None
        for key, value in records:
            if key not in _SCALARS and key not in ("input", "plan", "plan_rows"):
                raise ManifestError(f"{path}: unknown key {key!r}")
            try:
                if key == "input":
                    degree, p = value.split(":", 1)
                    if (int(degree), p) in inputs:
                        raise ManifestError(f"{path}: repeated line input={value}")
                    inputs.append((int(degree), p))
                elif key == "plan":
                    plan_rows.append(PlanRow(*(int(x) for x in value.split(","))))
                elif key == "plan_rows":
                    row_count = int(value)
                else:
                    fields[key] = _SCALARS[key](value)
            except (TypeError, ValueError):
                raise ManifestError(f"{path}: malformed {key}={value!r}") from None
        missing = [key for key in ("target_k", "n", "e_max") if key not in fields]
        if missing:
            raise ManifestError(f"{path}: missing key(s) {missing}")
        unknown = [x for x in fields.get("no_prune", ()) if x not in PRUNE_NAMES]
        if unknown:
            raise ManifestError(
                f"unknown pruning rule(s) {unknown}; known: {PRUNE_NAMES}")
        if row_count is None and plan_rows:
            raise ManifestError(f"{path}: plan= line(s) without plan_rows=")
        if row_count is not None and row_count != len(plan_rows):
            raise ManifestError(
                f"{path}: plan_rows={row_count} but {len(plan_rows)} plan line(s)")
        manifest = cls(inputs=inputs, **fields)
        degrees = {d for d, _ in inputs}
        try:
            if row_count is not None:
                manifest.plan = ClosurePlan(manifest.target_k, manifest.n,
                                            manifest.e_max, plan_rows)
            for degree in sorted(degrees | {0}):
                manifest.task_for(degree)  # checks the hub degree and edge cap
            left = manifest.plan and manifest.plan.survivors(
                data.builtin_table(manifest.target_k - 1), first=True)
        except (MissingBoundError, ValueError) as exc:
            raise ManifestError(f"{path}: {exc}") from None
        if left:
            raise ManifestError(
                f"{path}: plan leaves degree sequences uncovered: {left[0]}")
        lacking = sorted({d for d, _ in manifest.task_for(0).cover} - degrees)
        if lacking:
            raise ManifestError(
                f"{path}: certified plan rows of degree(s) {lacking} have no input")
        return manifest


def _run_shard(args) -> None:
    """Worker: glue every input line of one shard under the task and write
    the sorted canonical outputs to the shard's part file, which depends on
    the arguments only.  A host whose order is not m raises ManifestError."""
    part, lines, task, m = args
    out = []
    for line in lines:
        host = decode_graph6(line)
        if host.n != m:
            raise ManifestError(
                f"input {line} has order {host.n}; a degree-{task.d} hub "
                f"needs hosts of order {m}")
        out.extend(glue_extend(host, task))
    write_lines(part, sorted(out))


def run_manifest(
    manifest_path: str,
    out_path: str,
    workers: Optional[int] = None,
    allow_partial: bool = False,
) -> GraphStore:
    """Execute every shard whose part file is missing, then merge the parts
    into the output store.  The manifest is only read.  A repeated line
    raises StoreError while the canonical rule is active."""
    nworkers = worker_count(workers)  # a bad count raises before any write
    manifest = JobManifest.read(manifest_path)
    if manifest.plan is None and not allow_partial:
        raise ManifestError(
            "manifest lacks a closure certificate; pass allow_partial to run anyway")
    parts_dir = out_path + ".parts"
    os.makedirs(parts_dir, exist_ok=True)

    shards = []   # (part path, input lines, task, host order), in merge order
    for degree, path in manifest.inputs:
        if not os.path.exists(path):
            raise ManifestError(f"missing input file {path}")
        lines = read_lines(path)
        task = manifest.task_for(degree)
        for idx in range(max(1, math.ceil(len(lines) / SHARD_SIZE))):
            chunk = lines[idx * SHARD_SIZE:(idx + 1) * SHARD_SIZE]
            shards.append((_part_path(parts_dir, task, idx, chunk), chunk, task,
                           manifest.n - degree - 1))
    current = {os.path.basename(part) for part, *_ in shards}
    for name in set(os.listdir(parts_dir)) - current:
        os.remove(os.path.join(parts_dir, name))

    # equal chunks share a part: it runs once, and the merge reads it twice
    pending = list({s[0]: s for s in shards if not os.path.exists(s[0])}.values())
    nworkers = min(nworkers, len(pending))
    # each shard writes its own part, and map returns (or raises the first
    # error) only after every shard has run, so a failed or interrupted run
    # keeps every finished part
    if nworkers > 1:
        import multiprocessing  # here, so a serial run never loads it
        with multiprocessing.Pool(nworkers) as pool:
            pool.map(_run_shard, pending, chunksize=1)
    else:
        for shard in pending:
            _run_shard(shard)

    strict = manifest.task_for(0).canonical_rule  # one cover for every degree
    merged: list = []
    for line in heapq.merge(*(read_lines(part) for part, *_ in shards)):
        if merged and merged[-1] == line:
            if strict:
                raise StoreError(
                    f"{out_path}: {line} glued twice under the canonical rule")
            continue
        merged.append(line)
    store = GraphStore(manifest.target_k, manifest.n, 0, manifest.e_max,
                       complete=manifest.plan is not None,
                       certificate=_plan_hash(manifest.plan), lines=merged)
    store.write(out_path)
    return store


def _part_path(parts_dir: str, task: ExtensionTask, idx: int, chunk: list) -> str:
    """Shard ``idx``'s part file, keyed by the task and the chunk's lines."""
    key = hashlib.sha256("\n".join([repr(task)] + chunk).encode()).hexdigest()
    return os.path.join(parts_dir, f"d{task.d}_s{idx}_{key[:16]}.g6")


def _plan_hash(plan: Optional[ClosurePlan]) -> str:
    if plan is None:
        return ""
    text = plan.to_csv()
    return "plan:" + hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Bootstrap: regenerate complete classes from the bottom of the hierarchy
# ---------------------------------------------------------------------------

class Bootstrap:
    """Derives minimum edge counts and complete (3,k;n,<=e)-stores level by
    level.  Each level runs on the plan ``plan_closure`` solves over the
    values derived so far, the same plan ``ramsey3k plan`` prints for that
    table, and its closure certificate guarantees completeness.

    Values are found by probing: generate at the solver lower bound, and
    raise the ceiling until the class is realized.  Each level is glued by
    ``run_manifest`` from a ``<store>.manifest`` written next to its store,
    on ``worker_count()`` processes.  Stores are memoized in memory only:
    across instances work is reused through the keyed part files alone,
    and a store file is never read, only rewritten.
    """

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.table = EdgeBoundTable()
        self.table.set(1, 0, BoundEntry(EXACT, 0, "derived"))
        self.table.set(1, 1, BoundEntry(INFINITE, provenance="derived"))
        self._stores: dict = {}

    # -- values ---------------------------------------------------------

    def value(self, k: int, n: int):
        """Exact e(3,k,n) derived by generation; math.inf when empty."""
        if self.table.has(k, n):
            entry = self.table.entry(k, n)
            return math.inf if entry.kind == INFINITE else entry.value
        if n == 0:
            self._set_value(k, n, 0)
            return 0
        for i in range(0, min(k, n)):
            self.value(k - 1, n - 1 - i)
        lb = min_edge_bound(k, n, self.table)
        if lb.kind == INFINITE:
            self._set_value(k, n, math.inf)
            return math.inf
        ceiling = (k - 1) * n // 2
        probe = lb.value
        while probe <= ceiling:
            store = self.store(k, n, probe)
            if len(store):
                result = min(store.counts())
                self._set_value(k, n, result)
                return result
            probe += 1
        self._set_value(k, n, math.inf)
        return math.inf

    def _set_value(self, k: int, n: int, v) -> None:
        if v is math.inf:
            self.table.set(k, n, BoundEntry(INFINITE, provenance="derived"))
        else:
            self.table.set(k, n, BoundEntry(EXACT, v, "derived"))

    # -- stores -----------------------------------------------------------

    def store_path(self, k: int, n: int, e_cap: int) -> str:
        return os.path.join(self.root, f"c{k}_n{n}_e{e_cap}.g6")

    def store(self, k: int, n: int, e_cap: int) -> GraphStore:
        """Complete (3,k;n,<=e_cap)-store, generated if necessary."""
        for (kk, nn, cap), st in self._stores.items():
            if (kk, nn) == (k, n) and cap >= e_cap:
                return st.restricted(e_cap) if cap > e_cap else st
        st = self._generate(k, n, e_cap)
        self._stores[(k, n, e_cap)] = st
        return st

    def _generate(self, k: int, n: int, e_cap: int) -> GraphStore:
        """Build the store and write it to its ``store_path``."""
        path = self.store_path(k, n, e_cap)
        if k == 1 or n == 0:
            # the extension engines reconstruct graphs through a vertex, so
            # the vertexless base case is seeded directly
            st = GraphStore(k, n, 0, e_cap, complete=True, certificate="base",
                            lines=[canonical_form(Graph.empty(0))] if n == 0 else [])
            st.write(path)
            return st
        # ensure the level below is valued over the degree window
        for i in range(0, min(k, n)):
            self.value(k - 1, n - 1 - i)
        plan = plan_closure(k, n, e_cap, self.table)
        inputs = []
        for degree, ceiling in plan.cover():
            box = (k - 1, n - degree - 1, ceiling)
            st = self.store(*box)
            if box not in self._stores:
                # served as a restriction of a larger store, so it has no
                # file of its own yet
                st.write(self.store_path(*box))
            inputs.append((degree, self.store_path(*box)))
        JobManifest(k, n, e_cap, inputs=inputs, plan=plan).write(path + ".manifest")
        return run_manifest(path + ".manifest", path)
