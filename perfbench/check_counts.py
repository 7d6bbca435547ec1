#!/usr/bin/env python3
"""Checks that every count-type per-layer metric repeats exactly.

    python3 perfbench/check_counts.py --workload tenant-fleet --seed 3 \\
        --seconds 15

Runs the traced pass of one workload twice at the same seed and compares
the metrics listed in stats.COUNT_METRICS (distance evaluations by kind,
expiry sweeps, memory, coreset sizes, spill traffic, evictions, capture
bytes, ...). These are the counts a change may cite instead of a timing, so
any difference fails loudly with exit code 1.
"""

import argparse
import os
import sys

import run
import stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    first, _ = run.measure(root, args.workload, args.seed, args.seconds, 1)
    second, _ = run.measure(root, args.workload, args.seed, args.seconds, 1)
    differing = []
    for name in stats.COUNT_METRICS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        print(f"{name:42s} {a!r:>22} {b!r:>22}")
        if a != b:
            differing.append(name)
    if differing or not (first["correct"] and second["correct"]):
        print(f"COUNT METRICS DID NOT REPEAT: {differing}", file=sys.stderr)
        return 1
    print(f"all {len(stats.COUNT_METRICS)} count metrics repeat exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
