"""Steadiness check: run workloads under many seeds, print quartiles.

    python3 bench/steady.py [--first-seed 1] [--workload solve]

Each of the ten runs per workload is a fresh `bench/run.py --trace 0`
process with its own seed (first-seed, first-seed + 1, ...), measuring
for run_seconds of BENCHMARK.json.  For every end-to-end metric the
command prints the median, the first and third quartile as
statistics.quantiles(values, n=4) gives them, and the spread, the
quartile distance as a share of the median.  The bounds in
BENCHMARK.json are set from these spreads.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import WORKLOADS, run_workload

RUNS = 10


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            result = run_workload(workload, seed, 0)
            if result is None:
                return 1
            results.append(result)
            values = " ".join(f"{key}={metric['value']:.4f}"
                              for key, metric in result["metrics"].items())
            print(f"{workload} seed {seed}: {values} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: failed share {sorted(shares)} over {len(results)} runs")
        for key in results[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"{workload} {key:12} median {median:.4f} q1 {q1:.4f} q3 {q3:.4f} "
                  f"spread {(q3 - q1) / median:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
