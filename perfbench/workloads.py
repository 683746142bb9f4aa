"""The benchmark workloads.

``BENCHMARK.json`` gates ``census`` and ``verify``.  ``ladder`` and
``bounds`` are run by hand (``run.py --workload ladder``, or ``report.py``):
with four gated workloads the run budget leaves one job of about 20 s per
run, and on a shared 2-CPU machine that spread by more than the 0.25 bound
from run to run.

Each workload has a ``setup(root, seed, fixtures)`` that imports what it
needs and builds its inputs, and a ``job(inputs, scratch)`` that runs the
workload's fixed job once and checks every result against a published
reference.  Jobs reach program functions through their module or class at
call time, so the tracer's wrappers are seen.  ``job`` returns a :class:`Jobs` tally; a job counts as failed
when it raises, disagrees with the reference, or fails its certificate or
check.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile

# published (3,7;16,<=23) census: edge count -> number of graphs
CENSUS_COUNTS = {20: 2, 21: 15, 22: 201, 23: 2965}
CENSUS_BOX = (7, 16, 23)
# G_v reference box of the verify battery, requested after the census
GV_BOX = (6, 12, 14)
LADDER = ((6, 16), (6, 17), (7, 19), (7, 20))
# R(3,16) <= 98 comes from the paper; k = 11..15 are read from the
# bundled published columns
R_UPPER_K16 = 98


class Jobs:
    """Attempted and failed job counts, with one line per problem."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, label: str, check) -> bool:
        """Run one job; it fails when it raises or returns False."""
        self.attempted += 1
        try:
            ok = bool(check())
        except Exception as exc:  # a raising job is a failed job, not a crash
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
            ok = False
        else:
            if not ok:
                self.problems.append(f"{label}: wrong result")
        self.failed += not ok
        return ok

    def merge(self, other: "Jobs") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def _fresh(scratch: str) -> str:
    """An empty root, so every job starts from cold caches."""
    os.makedirs(scratch, exist_ok=True)
    return tempfile.mkdtemp(dir=scratch)


def _store_name(box) -> str:
    k, n, e = box
    return f"c{k}_n{n}_e{e}.g6"


# -- census -----------------------------------------------------------------

def census_setup(root, seed, fixtures):
    from ramsey3k.pipeline import Bootstrap

    return {"Bootstrap": Bootstrap}


def census_job(inputs, scratch) -> Jobs:
    jobs = Jobs()
    bs = inputs["Bootstrap"](_fresh(scratch))

    def census():
        store = bs.store(*CENSUS_BOX)
        return store.complete and store.counts() == CENSUS_COUNTS

    jobs.run(f"store{CENSUS_BOX}", census)
    return jobs


# -- ladder -----------------------------------------------------------------

def ladder_setup(root, seed, fixtures):
    from ramsey3k import data
    from ramsey3k.pipeline import Bootstrap

    grid = data.small_exact_table()
    flags = data.small_exact_flags()
    targets = []
    for k, n in LADDER:
        if flags.get((k, n)) != "b":
            raise ValueError(f"e(3,{k},{n}) is not a generation-derived row")
        targets.append((k, n, grid.entry(k, n).value))
    return {"Bootstrap": Bootstrap, "targets": targets}


def ladder_job(inputs, scratch) -> Jobs:
    jobs = Jobs()
    bs = inputs["Bootstrap"](_fresh(scratch))
    for k, n, want in inputs["targets"]:
        jobs.run(f"e(3,{k},{n})={want}", lambda: bs.value(k, n) == want)
    return jobs


# -- bounds -----------------------------------------------------------------

def bounds_setup(root, seed, fixtures):
    from ramsey3k import data, degseq

    table = data.builtin_table(10)
    grid = data.small_exact_table()
    boxes = [(k, n, grid.entry(k, n).value)
             for (k, n), flag in sorted(data.small_exact_flags().items())
             if flag == "b"]
    published = data.published_high_bounds()
    want_r = [published.first_infinite(k) for k in range(11, 16)] + [R_UPPER_K16]
    return {"degseq": degseq, "table": table, "boxes": boxes,
            "published": published, "want_r": want_r}


def bounds_job(inputs, scratch) -> Jobs:
    jobs = Jobs()
    # call through the module, so the functions are looked up at call time
    degseq = inputs["degseq"]
    table = inputs["table"]
    for k, n, e in inputs["boxes"]:
        def certify():
            plan = degseq.plan_closure(k, n, e, table)
            return degseq.closure_sufficiency_check(k, n, e, plan, table).certified
        jobs.run(f"plan ({k};{n},<={e})", certify)

    derived = {}

    def propagate():
        derived["table"] = degseq.propagate_bounds(11, 16, table)
        return True

    if not jobs.run("propagate_bounds(11, 16)", propagate):
        return jobs
    result = derived["table"]
    for k, want in zip(range(11, 17), inputs["want_r"]):
        jobs.run(f"R(3,{k}) <= {want}", lambda: degseq.r_upper(k, result) == want)

    def columns():
        for (k, n), entry in inputs["published"].entries.items():
            mine = result.entry(k, n)
            if (entry.kind == degseq.INFINITE) != (mine.kind == degseq.INFINITE):
                return False
            if entry.kind != degseq.INFINITE and mine.value != entry.value:
                return False
        return True

    jobs.run("published k=11..15 columns", columns)
    return jobs


# -- verify -----------------------------------------------------------------

def build_fixtures(out_dir: str) -> None:
    """Generate the census stores the verify workload reads back."""
    from ramsey3k.pipeline import Bootstrap

    work = os.path.join(out_dir, "bootstrap")
    bs = Bootstrap(work)
    bs.store(*CENSUS_BOX)
    bs.store(*GV_BOX)
    for box in (CENSUS_BOX, GV_BOX):
        for suffix in ("", ".meta"):
            name = _store_name(box) + suffix
            shutil.copyfile(os.path.join(work, name), os.path.join(out_dir, name))
    shutil.rmtree(work)


def verify_setup(root, seed, fixtures):
    from ramsey3k import data, oracle
    from ramsey3k.store import GraphStore

    paths = {}
    for box in (CENSUS_BOX, GV_BOX):
        for suffix in ("", ".meta"):
            name = _store_name(box) + suffix
            shutil.copyfile(os.path.join(fixtures, name), os.path.join(root, name))
        paths[box] = os.path.join(root, _store_name(box))
    # the seed relabels every census member handed to the checks
    rng = random.Random(seed)
    n = CENSUS_BOX[1]
    perms = [rng.sample(range(n), n) for _ in range(sum(CENSUS_COUNTS.values()))]
    e_gv = data.small_exact_table().entry(GV_BOX[0], GV_BOX[1]).value
    return {"GraphStore": GraphStore, "oracle": oracle, "paths": paths,
            "perms": perms, "e_gv": e_gv}


def verify_job(inputs, scratch) -> Jobs:
    jobs = Jobs()
    read = inputs["GraphStore"].read
    oracle = inputs["oracle"]
    stores = {}

    def read_census():
        st = stores["census"] = read(inputs["paths"][CENSUS_BOX], check=True)
        return st.complete and st.counts() == CENSUS_COUNTS

    def read_gv():
        st = stores["gv"] = read(inputs["paths"][GV_BOX], check=True)
        return st.complete and min(st.counts()) == inputs["e_gv"]

    if not (jobs.run(f"read {CENSUS_BOX}", read_census)
            & jobs.run(f"read {GV_BOX}", read_gv)):
        return jobs
    k, n, e_max = CENSUS_BOX
    census = stores["census"]
    members = [g.permuted(p) for g, p in zip(census.graphs(), inputs["perms"])]
    e_min = min(CENSUS_COUNTS)

    def minimality():
        minimal = [oracle.verify_minimality(g, k) for g in members]
        return all(ok for g, ok in zip(members, minimal) if g.edge_count() == e_min)

    def add_edge():
        base = [g for g in members if g.edge_count() < e_max]
        return oracle.add_edge_closure_check(base, 1, k, census.forms(), n=n)

    def gv():
        return oracle.gv_consistency_check(
            members, k, stores["gv"].forms(), GV_BOX[1], GV_BOX[2])

    jobs.run(f"edge-minimality of e={e_min} members", minimality)
    jobs.run("add-edge closure, f=1", add_edge)
    jobs.run(f"G_v consistency against {GV_BOX}", gv)
    return jobs


WORKLOADS = {
    "census": (census_setup, census_job),
    "ladder": (ladder_setup, ladder_job),
    "bounds": (bounds_setup, bounds_job),
    "verify": (verify_setup, verify_job),
}
