"""Machine-speed reference for the benchmark's timings.

A shared host runs the same pure-Python loop up to a third slower for tens of
seconds at a time, and CPU time moves with wall time, so a plain wall-clock
median of a run depends on when the run happened.  ``SpeedProbe`` measures a
fixed pure-Python slice (integer polynomial products, ``Fraction`` sums and
dict updates, the operations symext spends its time in) right before and
right after a timed region, and every ``INTERVAL_S`` of wall time inside it
from a ``SIGALRM`` handler, in the same thread.  The region's time is then
reported at the reference speed:

    (wall time - time spent in reference slices) * REF_S / mean slice time

so a region that runs while the machine is slow is scaled back by the amount
the reference slowed down with it.  The reference is benchmark code and calls
nothing in symext, so a change to the program moves the program's time and
not the reference.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Nominal duration of one reference slice: the median on the 2-CPU host the
# benchmark was defined on.  It only sets the scale of the reported seconds.
REF_S = 0.009
INTERVAL_S = 0.25


def reference_slice() -> int:
    """A fixed amount of pure-Python work; returns a checksum."""
    a = [(i * 7919) % 1009 - 500 for i in range(32)]
    b = [(i * 104729) % 1013 - 500 for i in range(32)]
    for _ in range(60):
        c = [0] * 63
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        a = [v % 1000003 - 500000 for v in c[:32]]
    s = Fraction(0)
    for i in range(1, 600):
        s += Fraction(i, i + 1) * Fraction(3, i)
    d: dict[int, int] = {}
    for i in range(16000):
        d[i % 97] = d.get(i % 97, 0) + i
    return sum(a) + s.numerator % 1000003 + d[5]


CHECKSUM = reference_slice()


class SpeedProbe:
    """Times regions of code and scales them to the reference speed."""

    def __init__(self) -> None:
        self._slices: list[float] = []
        self._active = False

    def _sample(self) -> float:
        t = perf_counter()
        if reference_slice() != CHECKSUM:
            raise RuntimeError("the reference slice computed a different checksum")
        dt = perf_counter() - t
        self._slices.append(dt)
        return dt

    def _on_alarm(self, signum, frame) -> None:
        if self._active:
            self._sample()

    def measure(self, fn, *args):
        """Run fn(*args); return (its result, reference-speed seconds, wall seconds)."""
        self._slices = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        start = perf_counter()
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._active = False
            wall = perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        inside = sum(self._slices[1:])
        self._sample()
        program = wall - inside
        return result, program * REF_S / statistics.fmean(self._slices), program
