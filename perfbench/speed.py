"""Probes of the host's speed, taken between timed operations.

On a shared host the same code can run up to about 2x slower for seconds at
a time: on a 2-core x86-64 box a pure-Python loop, a dict-of-tuples loop and
a 200x200 numpy inverse all slowed together, in spells of one to ten
seconds.  The benchmark times a fixed probe, independent of taulab, every
EVERY_S seconds of its timed loop, and divides the run's timings by the
median slowdown the probes show (raised to the workload's exponent in
workloads.HOST_EXPONENT).
"""

from __future__ import annotations

import statistics
import time

EVERY_S = 0.25
# The probe's time at the fast speed of a 2-core x86-64 box (the slow speed
# there took 5.8 ms).  Scaled times read as on that box at its fast speed.
REFERENCE_S = 0.0037


def probe() -> float:
    """Seconds for a fixed mix of interpreter and small-LAPACK work."""
    import numpy  # not at module import: run.py pins BLAS threads first

    matrix = numpy.eye(6) * 4.0 + 1.0
    start = time.perf_counter()
    acc = 0
    for i in range(20_000):
        acc += hash((i, i * 0.5)) % 7
    for _ in range(40):
        numpy.linalg.inv(matrix)
    return time.perf_counter() - start


class Speedometer:
    """Probe times taken during one run."""

    def __init__(self):
        self.seconds: list[float] = []
        self._last = None

    def take(self) -> None:
        self.seconds.append(min(probe(), probe()))
        self._last = time.perf_counter()

    def maybe_take(self) -> None:
        if self._last is None or time.perf_counter() - self._last >= EVERY_S:
            self.take()

    def slowdown(self) -> float:
        """The host's median slowdown against REFERENCE_S over the probes."""
        return statistics.median(self.seconds) / REFERENCE_S
