"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 10 --trace 0

Run from anywhere; the program measured is the ``src/ramsey3k`` next to this
directory.  Every workload runs in fresh processes with ``RAMSEY_WORKERS=1``
and an empty temporary root under ``perfbench/.work``:

* ``setup`` processes before and after the job give the median set-up
  time, together with the measuring process's own set-up;
* one ``run`` process gives the time to solution and peak memory with
  tracing off (``--trace 0``), or the per-layer metrics of one traced job
  next to one untraced job (``--trace 1``).

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it holds the provenance (CPUs, Python and numpy versions,
commit, source hash).  The exit code is 0 only when every job's result
matched its reference.  See ``perfbench/README.md`` for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import workloads
from tracing import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_SAMPLES = 4  # set-up processes before the job, and again after it
DEADLINE_S = 175.0
FIXTURE_DEADLINE_S = 850.0

# (name, unit) of the metrics reported with --trace 0
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def source_hash() -> str:
    """Hash of the program's sources and bundled data."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ramsey3k")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".csv")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


class Runner:
    """Starts the worker processes of one benchmark run."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=SRC, RAMSEY_WORKERS="1",
                        PYTHONHASHSEED="0")
        self.roots: list = []

    def fresh_root(self) -> str:
        os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
        root = tempfile.mkdtemp(dir=os.path.join(WORK, "tmp"))
        self.roots.append(root)
        return root

    def cleanup(self) -> None:
        for root in self.roots:
            shutil.rmtree(root, ignore_errors=True)

    def call(self, args: list, deadline: float = 0.0) -> dict:
        """Run ``python3 <args>`` in a child and parse its last line."""
        left = (deadline or self.deadline) - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run([sys.executable] + args, cwd=ROOT, env=self.env,
                                  stdout=subprocess.PIPE, text=True, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(args)}") from exc
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"exit {proc.returncode}: {' '.join(args)}")
        return json.loads(lines[-1])

    def compile(self) -> None:
        """Byte-compile program and benchmark so every import reads a cache."""
        try:
            subprocess.run([sys.executable, "-m", "compileall", "-q",
                            os.path.join(SRC, "ramsey3k"), HERE],
                           cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                           timeout=max(1.0, self.deadline - time.monotonic()),
                           check=True)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"byte-compiling failed: {exc}") from exc

    def fixtures(self, start: float) -> str:
        """Census stores for the verify workload, built once per source."""
        path = os.path.join(WORK, "fixtures", source_hash())
        if not os.path.isdir(path):
            tmp = self.fresh_root()
            self.call([os.path.join(HERE, "worker.py"), "fixtures", "--root", tmp],
                      deadline=start + FIXTURE_DEADLINE_S)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            try:
                os.rename(tmp, path)
            except OSError:
                if not os.path.isdir(path):  # another run may have won the race
                    raise
            else:
                self.roots.remove(tmp)
        return path


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "ramsey3k", "__init__.py")):
        print(f"run.py: no program at {SRC}/ramsey3k", file=sys.stderr)
        return 2
    runner = Runner(start + DEADLINE_S)
    try:
        result = measure(runner, args, start)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.cleanup()

    failed = result["failed"]
    for problem in result["problems"]:
        print(f"FAILED {args.workload}: {problem}", file=sys.stderr)
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **result["environment"], "commit": git_commit(),
        "source_hash": source_hash(), "ramsey_workers": 1,
    }
    line = {"correct": failed == 0, "attempted": result["attempted"],
            "failed": failed, "metrics": result["metrics"]}
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"provenance": provenance, **line,
                             "detail": result["detail"]}) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(line))
    return 0 if failed == 0 else 1


def measure(runner: Runner, args, start: float) -> dict:
    worker = os.path.join(HERE, "worker.py")
    runner.compile()
    fixtures = runner.fixtures(start) if args.workload == "verify" else ""
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--fixtures", fixtures]

    def setup_samples() -> list:
        return [runner.call([worker, "setup", "--root", runner.fresh_root()] + common)
                ["setup_s"] for _ in range(SETUP_SAMPLES)]

    # half the set-up samples before the job and half after, so that a
    # passing burst of machine load does not set the median alone
    setups = setup_samples()
    spans = ""
    if args.trace:
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        spans = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.jsonl")
    out = runner.call([worker, "run", "--root", runner.fresh_root(),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--spans", spans] + common)
    setups += [out["setup_s"]] + setup_samples()
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(out["layers"].items())}
    else:
        values = {"setup_s": statistics.median(setups), "wall_s": out["wall_s"],
                  "peak_rss_mb": out["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    detail = {"setup_samples": setups, "walls": out.get("walls"),
              "peak_rss_mb": out["peak_rss_mb"], "spans": spans}
    return {"attempted": out["attempted"], "failed": out["failed"],
            "problems": out["problems"], "environment": out["environment"],
            "metrics": metrics, "detail": detail}


if __name__ == "__main__":
    sys.exit(main())
