"""One workload in one fresh process; started by ``run.py``.

Modes:

* ``setup``    -- import the program and build the workload's inputs, once;
* ``run``      -- set up, then run the workload's job untraced, again and
                  again while one more job still fits in ``--seconds`` (at
                  least once); with ``--trace 1`` run it once untraced and
                  once traced instead;
* ``fixtures`` -- generate the census stores the ``verify`` workload reads.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports no program module by itself)


def _setup(args) -> tuple:
    """(seconds, job, inputs): the program is imported inside the timing."""
    t0 = time.perf_counter()
    setup, job = workloads.WORKLOADS[args.workload]
    inputs = setup(args.root, args.seed, args.fixtures)
    return time.perf_counter() - t0, job, inputs


def _timed(job, inputs, scratch: str) -> tuple:
    t0 = time.perf_counter()
    jobs = job(inputs, scratch)
    return time.perf_counter() - t0, jobs


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__}


def _check_program() -> None:
    """Refuse to measure any ramsey3k but the one in this checkout."""
    import ramsey3k

    if os.path.commonpath([os.path.abspath(ramsey3k.__file__), SRC]) != SRC:
        raise SystemExit(f"ramsey3k imported from {ramsey3k.__file__}, not {SRC}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "run", "fixtures"))
    p.add_argument("--workload", default="census")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--fixtures", default="")
    p.add_argument("--spans", default="")
    args = p.parse_args(argv)

    if args.mode == "fixtures":
        workloads.build_fixtures(args.root)
        _check_program()
        print(json.dumps({"fixtures": args.root}))
        return 0

    setup_s, job, inputs = _setup(args)
    _check_program()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    scratch = os.path.join(args.root, "jobs")
    total = workloads.Jobs()
    walls: list = []
    out: dict = {"setup_s": setup_s}
    if args.trace:
        from tracing import Tracer, layer_metrics

        base, jobs = _timed(job, inputs, scratch)
        total.merge(jobs)
        with Tracer() as tracer:
            traced, jobs = _timed(job, inputs, scratch)
        total.merge(jobs)
        out["layers"] = layer_metrics(tracer.spans)
        out["layers"]["trace.base_wall_s"] = base
        out["layers"]["trace.overhead_ratio"] = traced / base - 1.0
        if args.spans:
            tracer.dump(args.spans)
    else:
        # repeat while one more job of median length still fits
        start = time.perf_counter()
        while True:
            wall, jobs = _timed(job, inputs, scratch)
            walls.append(wall)
            total.merge(jobs)
            if len(walls) == 1:
                # peak memory of one cold job: later repetitions raise the
                # high-water mark through fragmentation, and their number
                # depends on the speed
                out["peak_rss_mb"] = _peak_rss_mb()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > args.seconds:
                break
        out["walls"] = walls
        out["wall_s"] = statistics.median(walls)
    out.setdefault("peak_rss_mb", _peak_rss_mb())
    out.update(attempted=total.attempted, failed=total.failed,
               problems=total.problems, environment=_environment())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
