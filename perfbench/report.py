#!/usr/bin/env python3
"""Corpus make-up and host facts for README.md:  python3 perfbench/report.py [--seed N]

Prints, per workload, the share of each operation kind, case pattern,
verdict and reason over one round of the seeded corpus, and the share of
round time taken by the near-boundary lift.  Then runs the traced
benchmark once per workload and prints its per-layer figures with the host
facts: nproc, Python, NumPy and SciPy versions, load average, and the CPU
steal ticks /proc/stat counted during the run.  Not part of the measured
benchmark.
"""

import pinned  # noqa: F401  (first: pins BLAS threads before NumPy loads)

import argparse
import collections
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import markovembed  # noqa: E402
import workloads  # noqa: E402


def steal_ticks() -> int:
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8])


def shares(counter: collections.Counter, total: int) -> str:
    return ", ".join(f"{k} {100 * v / total:.1f}%" for k, v in counter.most_common())


def makeup(workload: str, seed: int) -> None:
    ops = workloads.build(workload, seed)
    kinds, patterns, outcomes = (collections.Counter() for _ in range(3))
    near_s = total_s = 0.0
    for op in ops:
        kinds[op.kind] += 1
        if op.matrix is None or workload == "cli":
            continue
        t0 = time.process_time()
        res = markovembed.decide(op.matrix)
        dt = time.process_time() - t0
        total_s += dt
        if op.kind == "near_boundary_lift":
            near_s = dt
        patterns[res.case.pattern.value if res.case else "none"] += 1
        outcomes[f"{res.verdict.value}/{res.reason.value if res.reason else '-'}"] += 1
    n = len(ops)
    print(f"## {workload} (seed {seed}): {n} operations per round")
    print(f"kinds: {shares(kinds, n)}")
    if patterns:
        print(f"patterns: {shares(patterns, n)}")
        print(f"verdict/reason: {shares(outcomes, n)}")
    if near_s:
        print(f"near-boundary lift: {near_s:.2f} s of {total_s:.2f} s round CPU time "
              f"({100 * near_s / total_s:.1f}%)")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=12)
    args = ap.parse_args()
    print(f"nproc {os.cpu_count()}, Python {platform.python_version()}, NumPy {np.__version__}, "
          f"SciPy {scipy.__version__}, load average {os.getloadavg()}")
    for w in workloads.WORKLOADS:
        makeup(w, args.seed)
    for w in workloads.WORKLOADS:
        steal0 = steal_ticks()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", w, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace", "1"],
                              capture_output=True, text=True, cwd=ROOT, check=True)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"## traced {w}: attempted {res['attempted']}, failed {res['failed']}, "
              f"steal ticks during run {steal_ticks() - steal0}, load average {os.getloadavg()}")
        for m, v in res["metrics"].items():
            print(f"  {m} {v['value']:.4g} {v['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
