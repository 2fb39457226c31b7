"""A clock that runs at the program's speed on a nominal machine.

A shared host runs one process at speeds that wander by a quarter and more
within seconds (other tenants, frequency changes), and CPU time wanders
with wall time, so neither can compare two runs of the same code made a
minute apart.  The meter samples the machine's speed while the program
runs: a timer signal every `PERIOD` seconds interrupts it to time a fixed
piece of reference work (pure-stdlib Fraction, dict and tuple code, the
same kind of interpreter work the program does).  Each stretch of program
time between two samples is scaled by the mean speed of its two ends, so
`clock()` advances by the seconds the program would have taken had the
machine run the reference work in exactly `REFERENCE_S`.  The samples'
own time is left out.

Only the benchmark's code runs in the samples, so a change to the program
moves the clock's readings exactly as it moves wall time at a steady
machine speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction as F

# Duration of one `reference_work()` at nominal speed: its median on a
# 2-vCPU x86-64 host under CPython 3, so readings are close to wall
# seconds there.
REFERENCE_S = 0.0006
PERIOD = 0.02

_perf = time.perf_counter


def reference_work() -> int:
    table = {}
    x = F(0)
    for i in range(150):
        y = F(i % 7 + 1, i % 11 + 2)
        x = x + y if x < 3 else y
        table[(i % 17, y.denominator)] = (x, str(i))
    return len(table)


class SpeedMeter:
    """Start, read `clock()` around what is timed, stop.  Main thread only."""

    def __init__(self):
        self.total = 0.0
        self.speeds: list[float] = []  # nominal/measured, one per sample
        self._busy = False
        self._last_end = 0.0
        self._last_speed = 1.0

    def _sample(self) -> tuple[float, float, float]:
        a = _perf()
        reference_work()
        b = _perf()
        return a, b, REFERENCE_S / (b - a)

    def _commit(self) -> None:
        a, b, speed = self._sample()
        self.total += (a - self._last_end) * (speed + self._last_speed) / 2
        self._last_end, self._last_speed = b, speed
        self.speeds.append(speed)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick landing inside a sample or a clock read
            return
        self._busy = True
        try:
            self._commit()
        finally:
            self._busy = False

    def start(self) -> None:
        _, self._last_end, self._last_speed = self._sample()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Nominal seconds of program time since `start()`."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self._busy = True
        try:
            self._commit()
            return self.total
        finally:
            self._busy = False
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def median_speed(self) -> float:
        return statistics.median(self.speeds) if self.speeds else 1.0
