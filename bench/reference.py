"""A fixed reference computation that gauges how fast the machine runs now.

The benchmark runs on a few cores of a shared host.  The same code runs up
to 1.5x slower in a busy spell than in a quiet one, and a spell lasts from
seconds to minutes, so raw times of runs a few minutes apart differ by more
than the bounds in BENCHMARK.json.  While a round runs, a timer therefore
interrupts it every PERIOD_S and runs one short slice of this reference in
the same thread, so the slice meets the same contention as the program
around it.  Each stretch of program time between two slices is then taken
at the reference speed:

    scaled = measured * NOMINAL_S / local slice time

where the local slice time is the median of the LOCAL_SLICES slices
nearest to the stretch.  The slices' own time is left out of the measured
time.  A reference run on the other core, or only between operations,
followed the program's speed less well.

A slice is interpreted integer and Fraction arithmetic, the work that
decides most of the program's time.  Slices that also walked large arrays
or object graphs followed the program's speed less well: their own time
swings with the other tenants' use of the shared cache.  A slice never
calls htype, so a change to the program does not move it.

Python runs the timer's handler only between bytecodes, so a slice that
falls due during a long call into compiled code, such as a large SVD,
runs when the call returns; the timer does interrupt a wait for a child
process.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.002  # about the median slice, run back to back, on the reference machine
PERIOD_S = 0.1
LOCAL_SLICES = 7
EDGE_SLICES = 10


def run_slice() -> float:
    start = time.perf_counter()
    s = 0
    for i in range(14000):
        s += i * i % 7
    f = Fraction(1, 3)
    for i in range(1, 140):
        f = f * Fraction(i, i + 1) + Fraction(1, i + 2)
        f = Fraction(f.numerator % 1000003, f.denominator % 1000003 or 1)
    return time.perf_counter() - start


class Gauge:
    """Runs a slice every PERIOD_S between start() and stop().

    Both also run EDGE_SLICES slices, so that every stretch of program time
    has slices on both sides; the first of them warm the slice's code up.
    """

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self._in_slice = False

    def _slice(self, *_signal) -> None:
        if self._in_slice:  # the timer fired again during a slow slice
            return
        self._in_slice = True
        self.starts.append(time.perf_counter())
        self.times.append(run_slice())
        self._in_slice = False

    def start(self) -> None:
        for _ in range(EDGE_SLICES):
            self._slice()
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SLICES):
            self._slice()

    def program_time(self, start: float, end: float) -> tuple[float, float]:
        """Time from start to end less the slices in it: measured, and scaled."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        measured = scaled = 0.0
        t = start
        for i in range(first, last + 1):  # stretch i ends where slice i starts
            stretch = (self.starts[i] if i < last else end) - t
            measured += stretch
            scaled += stretch * NOMINAL_S / self._local(i)
            if i < last:
                t = self.starts[i] + self.times[i]
        return measured, scaled

    def _local(self, i: int) -> float:
        """Median of the LOCAL_SLICES slices nearest to stretch i."""
        lo = max(0, min(i - LOCAL_SLICES // 2, len(self.times) - LOCAL_SLICES))
        return statistics.median(self.times[lo:lo + LOCAL_SLICES])
