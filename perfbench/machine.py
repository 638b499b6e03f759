"""Machine-speed probe, so that timings compare across runs on a shared host.

On a shared virtual machine the speed of one core drifts by tens of percent
over seconds, far more than the changes the benchmark must resolve.  A fixed
unit of interpreter and NumPy work, timed between ops, measures that drift
where the ops run: each op's time is divided by the probe time around it and
multiplied by the probe's nominal time.  The library never runs inside a
probe, so a faster library lowers the normalised times as much as the raw
ones.

What an op leaves behind (cold caches, allocator state) slows the probe
that follows it by up to a quarter, by an amount that depends on the op.
So the probe runs in bursts and only the last, settled probes of a burst
count: ``probe_check.py`` shows that they read the same after any
workload's op as after a neutral one.
"""

from __future__ import annotations

import math
import statistics
import time
from array import array

import numpy as np

# Typical probe time between ops on the machine the baseline was recorded
# on (2 vCPU x86_64 VM, Python 3.11).  Only a scale: it keeps normalised
# times close to wall-clock times there.
NOMINAL_S = 2.2e-4
EVERY_S = 0.02   # probe again after this much op time
BURST = 7        # probes in a row each time
SETTLE = 4       # first probes of a burst, left out: an op's after-effects
WINDOW = 5       # bursts on each side of an op that set its local speed

_XS = [i / 1000.0 for i in range(1000)]
_ARRAY = np.random.default_rng(0).random(3000)


def probe() -> float:
    """Seconds taken by one fixed unit of float loops, sorting and formatting."""
    t0 = time.perf_counter()
    total = 0.0
    for x in _XS:
        total += math.exp(-x * x) * (x * x * x - x)
    np.sort(_ARRAY)
    "".join([f"{x:.6f}" for x in _XS[:100]])
    return time.perf_counter() - t0


def speed_sample(burst: int = BURST) -> float:
    """Median probe time over a burst, without its first SETTLE probes."""
    times = [probe() for _ in range(burst)]
    return statistics.median(times[SETTLE:])


class Probes:
    """Speed samples interleaved with a sequence of timed ops."""

    def __init__(self) -> None:
        self.times = array("d")
        self.before_op = array("q")  # index of the op each probe preceded
        self._since = math.inf

    def maybe_probe(self, op_index: int) -> None:
        if self._since >= EVERY_S:
            self.times.append(speed_sample())
            self.before_op.append(op_index)
            self._since = 0.0

    def after_op(self, seconds: float) -> None:
        self._since += seconds

    def scales(self, n_ops: int) -> np.ndarray:
        """Per op: nominal probe time / local probe time (median of the
        samples within WINDOW of the op's last preceding sample)."""
        local = [statistics.median(self.times[max(0, j - WINDOW):j + WINDOW + 1])
                 for j in range(len(self.times))]
        last_probe = np.searchsorted(self.before_op, np.arange(n_ops), side="right") - 1
        return NOMINAL_S / np.asarray(local)[last_probe]
