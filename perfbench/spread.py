#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads verify_q,orbit --seeds 1-10 --seconds 25

Runs run.py once per (workload, seed), one run at a time, and prints for
each metric the median over seeds and the quartile spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median.  The figures in README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="verify_q,verify_fp,scan,orbit")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True,
            ).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:14} median {median:12.4f}  quartile spread {(q3 - q1) / median:7.2%}  "
                  f"min {min(values):.4f} max {max(values):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
