"""Whether the speed scale makes repeated runs agree better than raw times.

    python3 bench/reference_check.py [workload ...]    # default: all three

worker.py multiplies the time of every item that finished by a speed
scale taken from the reference slices near the item.  That only helps if
a host that runs the slice slower runs the program slower by the same
factor.  This script runs each workload's worker REPEATS times on the
same seed, so the inputs are identical and only the host's speed differs
between runs, and prints the spread (quartile distance over median) of
wall_s and item_p50_ms, as measured and as scaled.  A scaled spread below
the measured one means the slice tracks the program on this host.  Takes
about 5 minutes a workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import RUN_SECONDS, WORKER, WORKLOADS

REPEATS = 12
SEED = 1


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv: list[str]) -> None:
    for workload in argv or list(WORKLOADS):
        runs = []
        for _ in range(REPEATS):
            proc = subprocess.run(
                [sys.executable, str(WORKER), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(RUN_SECONDS)],
                capture_output=True, text=True, check=True,
            )
            runs.append(json.loads(proc.stdout.splitlines()[-1]))
        for metric in ("wall_s", "item_p50_ms"):
            measured = [r[f"{metric}_measured"] for r in runs]
            scaled = [r[metric] for r in runs]
            print(f"{workload} {metric}: spread measured {spread(measured):.3f}, "
                  f"scaled {spread(scaled):.3f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
