"""Print every benchmark metric by name, with its unit, for each workload.

    python3 perfbench/report.py [--seed 1]

Runs ``run.py`` once with tracing off (end-to-end metrics) and once with
tracing on (per-layer metrics) for every workload in ``workloads.py`` -- the
two that ``BENCHMARK.json`` gates and the two run by hand -- for the
``run_seconds`` of ``BENCHMARK.json``, and adds ``fail_ratio``, the failed
jobs divided by the attempted jobs.  Exits 1 when any job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402  (imports no program module by itself)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"run.py --workload {workload} printed nothing "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    all_ok = True
    for workload in workloads.WORKLOADS:
        print(f"== {workload} (seed {args.seed})")
        for trace in (0, 1):
            result = run(workload, args.seed, bench["run_seconds"], trace)
            all_ok &= result["correct"]
            if trace == 0:
                ratio = result["failed"] / result["attempted"]
                print(f"  {'fail_ratio':44s} {ratio:>14.6g} ratio"
                      f"  ({result['failed']} of {result['attempted']} jobs)")
            for name, m in result["metrics"].items():
                print(f"  {name:44s} {m['value']:>14.6g} {m['unit']}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
