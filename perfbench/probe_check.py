"""Check that the machine-speed probe does not depend on the workload.

    python3 perfbench/probe_check.py --seconds 15

For each workload, alternates one op with a neutral op (pure-Python
arithmetic, no library call) and takes a probe burst right after each.
Prints, per workload, the median over op pairs of the ratio of the speed
sample after the op to the one after the neutral op, and the same ratio for
the first probe of the bursts alone.  Each ratio pairs samples taken a few
milliseconds apart, so host drift cancels out of it; a ratio near 1 means
that what an op leaves behind does not reach the speed sample.  Run from
the root of a source checkout, like run.py.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

import machine
import run
import workloads


def neutral_op() -> float:
    total = 0.0
    for i in range(20000):
        total += i * 0.5
    return total


def burst() -> tuple[float, float]:
    """(first probe, speed sample) of one burst."""
    times = [machine.probe() for _ in range(machine.BURST)]
    return times[0], statistics.median(times[machine.SETTLE:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="wall seconds per workload")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    lib, tables = run.load_library()
    chosen = {name: cls(lib, args.seed, tables) for name, cls in workloads.WORKLOADS.items()}
    gc.collect()
    gc.freeze()
    for name, workload in chosen.items():
        inputs = workload.inputs()
        first, settled = [], []
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            try:
                workload.run(next(inputs))
            except ValueError:  # an expected domain error is an op too
                pass
            after_op = burst()
            neutral_op()
            after_neutral = burst()
            first.append(after_op[0] / after_neutral[0])
            settled.append(after_op[1] / after_neutral[1])
        print(f"{name:<10} pairs {len(settled):>5}  speed sample ratio "
              f"{statistics.median(settled):.4f}  first probe ratio "
              f"{statistics.median(first):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
