"""Host-speed calibration: wall times rescaled to a reference host speed.

The shared 2-CPU VM this benchmark was built on runs all code up to 1.9x
faster or slower in spells of 5-30 s, so a 35 s run can land mostly in a
slow or a fast spell and raw wall times of the same code differ by 15-25%
between runs.  A probe, a fixed pure-Python task of about 1 ms
(``Fraction`` arithmetic, dict and list building, as zetacode does), is
timed between operations at most every ``EVERY_S`` seconds.  An
interval's time is then multiplied by ``REF_NS / m``, where m is the
median probe time within ``WINDOW_S`` seconds of the interval.  The result reads as the
time the interval would take on a host where the probe takes exactly
1 ms.  The probe is benchmark code, so a change to zetacode moves the
rescaled times exactly as it moves the work.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

REF_NS = 1_000_000  # the reference host runs the probe in 1 ms
EVERY_S = 0.1  # about 1% of the run goes to probes
WINDOW_S = 1.0  # well inside the 5-30 s spells, wide enough for 5-20 probes


def probe() -> int:
    """Nanoseconds taken by the fixed calibration task.  The cyclic
    garbage collector is held off meanwhile, so that a collection of the
    heap the last operation left is not charged to the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter_ns()
        s = Fraction(0)
        d = {}
        for i in range(1, 120):
            s += Fraction(i, i + 1) * Fraction(3, i)
            d[i] = [i * j % 7 for j in range(8)]
        return time.perf_counter_ns() - t
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Probe times by when they were taken, and the scale they give."""

    def __init__(self):
        self.at: list[float] = []  # perf_counter seconds, ascending
        self.ns: list[int] = []
        probe()  # warm the interpreter's caches for the probe's code

    def sample(self) -> None:
        t = time.perf_counter()
        self.ns.append(probe())
        self.at.append(t)

    def maybe_sample(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a wall time spent in [start, end] into
        reference-host time."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.ns[lo:hi]
        if not near:  # no probe close by: take the nearest one
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            near = [self.ns[j] for j in {max(i - 1, 0), i}]
        return REF_NS / statistics.median(near)
