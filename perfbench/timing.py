"""Timing helpers: contention-corrected clocks and the percentile rule.

The benchmark runs on shared hosts whose CPU speed drifts by a third or
more for seconds to minutes at a time, as other tenants load the same
cores.  Every timing is therefore corrected by the host's current speed:
a fixed pure-Python calibration kernel is timed (best of
:data:`KERNEL_REPEATS`) at least every :data:`CALIBRATE_EVERY_S` seconds,
and each measured interval is scaled by ``REFERENCE_KERNEL_NS / kernel``,
averaged over the calibrations just before and just after it.
The figures read as wall time on an uncontended host whose kernel time is
:data:`REFERENCE_KERNEL_NS`; the raw wall times are printed beside them.
"""

from __future__ import annotations

import bisect
import math
import random
import time

#: Kernel time, in ns, of an uncontended 2.1 GHz Xeon vCPU under CPython
#: 3.11.  A constant, so corrected figures compare across runs and hosts.
REFERENCE_KERNEL_NS = 23_000_000
KERNEL_REPEATS = 2
CALIBRATE_EVERY_S = 2.0


def kernel() -> float:
    """Fixed interpreter work resembling the scheduler's: sorting 60 000
    floats, bisecting into them, updating a dict.  Of the kernels tried,
    this one's slowdowns tracked the workloads' most closely."""
    rng = random.Random(3)
    values = [rng.random() for _ in range(60000)]
    values.sort()
    table: dict[int, float] = {}
    for _ in range(20000):
        x = rng.random()
        j = bisect.bisect_left(values, x)
        table[j % 5003] = table.get(j % 5003, 0.0) + x
    return sum(table.values())


def kernel_ns() -> int:
    """Best of :data:`KERNEL_REPEATS` kernel timings."""
    best = math.inf
    for _ in range(KERNEL_REPEATS):
        began = time.perf_counter_ns()
        kernel()
        best = min(best, time.perf_counter_ns() - began)
    return int(best)


class SpeedClock:
    """Scales measured intervals by the host's speed around them.

    :meth:`stamp` tags a raw interval with the calibration before it;
    :meth:`correct` scales it by the mean speed factor of that
    calibration and the next one, so a speed change between the two is
    split evenly.  Call :meth:`finish` after the last interval.
    """

    def __init__(self) -> None:
        self.factors: list[float] = []
        self._calibrated = -math.inf

    def _calibrate(self) -> None:
        self.factors.append(REFERENCE_KERNEL_NS / kernel_ns())
        self._calibrated = time.perf_counter()

    def refresh(self) -> None:
        """Re-time the kernel if the last calibration is stale."""
        if time.perf_counter() - self._calibrated >= CALIBRATE_EVERY_S:
            self._calibrate()

    def stamp(self, raw_ns: int) -> tuple[int, int]:
        return raw_ns, len(self.factors) - 1

    def finish(self) -> None:
        """Calibrate once more, closing the last interval's bracket."""
        self._calibrate()

    def correct(self, stamped: tuple[int, int]) -> float:
        raw_ns, epoch = stamped
        return raw_ns * (self.factors[epoch] + self.factors[epoch + 1]) / 2


def percentile(samples: list[float], fraction: float, min_beyond: int = 10):
    """Nearest-rank percentile, its sample count and the samples beyond it.

    Raises ValueError when fewer than ``min_beyond`` samples lie beyond
    the percentile's rank: the figure would rest on too few cases.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(fraction * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{fraction * 100:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"needs {min_beyond}"
        )
    return ordered[rank - 1], len(ordered), beyond
