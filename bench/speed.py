"""Correct the timings of a pass for the speed of the machine.

A small shared machine runs the same pure-Python code at different speeds
from one stretch of seconds to the next: on a 2-vCPU Intel Xeon virtual
machine a fixed loop alternated between two speeds about 1.4x apart, in
stretches of 5 to 60 s, so one pass of a workload could land on either.
The benchmark therefore times a fixed reference loop inside the worker,
from a timer signal every ``INTERVAL_S`` while the workload runs, and
rescales each pass to the speed at which that loop takes ``REFERENCE_S``:

    corrected = (measured - time in the loop) * REFERENCE_S * mean(1 / loop time)

Work done is the integral of speed over time, and the timer samples the
speed at even steps of wall time, so the mean of the loop's reciprocal times
is the pass's mean speed.  The loop is the benchmark's own code, so a change
to permcodes moves the corrected times as it would move the measured ones at
constant machine speed.
"""

from __future__ import annotations

import signal
import statistics
import time

_clock = time.perf_counter

#: Seconds between samples; each sample costs about one ``REFERENCE_S``.
INTERVAL_S = 0.05
#: Time of the reference loop at the speed the corrected times are given in:
#: about its time in the machine's fast stretches (2-vCPU Intel Xeon,
#: Python 3.11.7).
REFERENCE_S = 0.001


def reference_loop() -> int:
    """Fixed interpreter work of the kind permcodes does: small tuples,
    dict updates, integer arithmetic and short sorts."""
    d: dict = {}
    s = 0
    for i in range(1500):
        t = (i, i * 7 % 13, i % 5)
        d[t] = d.get(t, 0) + s
        s += sorted(t)[1]
    return s


def time_loop() -> float:
    start = _clock()
    reference_loop()
    return _clock() - start


class SpeedSampler:
    """Times ``reference_loop`` from SIGALRM every ``INTERVAL_S`` between
    ``start`` and ``stop``, in the main thread of the calling process."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(time_loop())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def spent(self) -> float:
        """Seconds spent in the reference loop."""
        return sum(self.samples)

    def factor(self) -> float:
        """Corrected seconds per measured second."""
        return REFERENCE_S * statistics.fmean(1 / s for s in self.samples)
