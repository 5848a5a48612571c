"""Host-speed reference that the timed metrics are scaled by.

The benchmark's host is a shared virtual machine whose speed drifts by up
to 1.8x within minutes: one process doing the same pretraining epoch over
and over measured 21 000 to 39 000 tuples/s, and its CPU time moved with its
wall time, so the drift is the core getting slower, not the process waiting
to run. A fixed loop of small numpy calls slows down with it. tempcoh's
training at these shapes is made of the same kind of calls. Over 20-second
windows of that experiment the spread of the raw rate was 0.24 and the
spread of rate x reference time was 0.03.

So every timed sample is taken between two reference timings, and reported
at nominal host speed: a duration is divided by `speed`, a rate multiplied
by it, where `speed = reference seconds / NOMINAL_S`. The reference does not
use tempcoh, so a change to tempcoh moves the scaled metrics by exactly as
much as it moves the raw ones. Raw values stay in the run's detail line.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.005  # reference time on a 2-vCPU Intel Xeon VM at its usual speed
CALLS = 1000       # matrix-vector products and tanh calls per repetition
REPEATS = 3        # repetitions per measurement; their median is kept


class Reference:
    """Times the reference loop and keeps every measurement with its start
    and end, so callers can leave the time spent in it out of theirs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((256, 64))
        self._vector = rng.standard_normal(64)
        self.marks: list[tuple[float, float, float]] = []  # start, end, s
        self._loop()  # warm-up, not kept

    def _loop(self) -> float:
        matrix, vector = self._matrix, self._vector
        start = time.perf_counter()
        for _ in range(CALLS):
            np.tanh(matrix @ vector)
        return time.perf_counter() - start

    def measure(self) -> float:
        """Median reference time of `REPEATS` loops, in seconds."""
        start = time.perf_counter()
        seconds = statistics.median(self._loop() for _ in range(REPEATS))
        self.marks.append((start, time.perf_counter(), seconds))
        return seconds

    def seconds(self) -> list[float]:
        return [seconds for _, _, seconds in self.marks]

    def elapsed(self, first: int) -> tuple[float, float]:
        """(seconds, seconds at nominal host speed) from measurement `first`
        to the last one, without the time spent in measurements. Each gap
        between two measurements is scaled by the mean of the two."""
        raw = scaled = 0.0
        for (_, end, a), (start, _, b) in zip(self.marks[first:],
                                              self.marks[first + 1:]):
            raw += start - end
            scaled += (start - end) / self.speed((a + b) / 2)
        return raw, scaled

    @staticmethod
    def speed(reference_seconds: float) -> float:
        """How many times slower than nominal the host is running."""
        return reference_seconds / NOMINAL_S
