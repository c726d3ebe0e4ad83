"""Time warm iterations of one workload and print their median as JSON.

run.py starts this in a child process to measure a workload under a
different environment, such as OPENBLAS_NUM_THREADS=1:

    python perfbench/loop.py --workload fem_large --seed 2026 --iterations 3
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402
from femprob.problems import get_problem  # noqa: E402


def time_iterations(workload, problem, seed: int, iterations: int) -> list[float]:
    times = []
    for _ in range(iterations):
        start = time.perf_counter()
        workload.run(problem, seed)
        times.append(time.perf_counter() - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iterations", type=int, required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    problem = get_problem(workload.problem) if workload.problem else None
    time_iterations(workload, problem, args.seed, 1)  # warm-up
    times = time_iterations(workload, problem, args.seed, args.iterations)
    print(json.dumps({"run_s": statistics.median(times), "samples": len(times)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
