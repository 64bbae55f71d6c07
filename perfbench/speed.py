"""Host speed, from fixed work timed next to the work measured.

The host is shared, and its speed drifts by 5-50 % over seconds to
minutes.  Two gauges follow it; neither runs anything of the package, so
a change to the package does not move them and a real speed-up shows in
full.  The figures as measured stay in the run record.

Gauge times a fixed in-process kernel, shaped like the package's own work
(small complex matmuls and tuple rotations in Python loops), between
operations.  An operation timed while the kernel took k seconds (the
median of the NEAREST samples closest in time) is reported as its time *
REF_S / k, that is at the speed at which the kernel takes REF_S.

StartGauge times a bare `python -c pass` right before and right after
each new process that is timed (a set-up probe, a CLI call): start-up
reads files, maps shared libraries and takes page faults, and follows
the host's speed for such work much more closely than the in-process
kernel does.  The process's time is reported at the speed at which a
bare start takes REF_START_S.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

REF_S = 8e-4
INTERVAL_S = 0.1
NEAREST = 7
# after a gap this long (a CLI call, say) the host may have changed speed,
# so the next tick takes NEAREST fresh samples at once
STALE_S = 0.5
REF_START_S = 0.075
# a bare start taken this recently, with nothing timed since, is reused as
# the `before` sample of the next process
FRESH_S = 0.1
_M = np.array([[0.6, -0.8j], [0.8j, 0.6]])


def kernel() -> float:
    """Seconds one pass of the fixed kernel takes now."""
    t0 = time.perf_counter()
    r = np.eye(2, dtype=complex)
    for _ in range(150):
        r = _M @ r
    w = list(range(40))
    for _ in range(4):
        min(tuple(w[i:] + w[:i]) for i in range(40))
    counts: dict = {}
    for i in range(400):
        counts[i % 37, i % 11] = counts.get((i % 37, i % 11), 0) + 1
    return time.perf_counter() - t0


class Gauge:
    """Kernel samples taken at most every INTERVAL_S, between operations."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def tick(self):
        gap = time.perf_counter() - self.times[-1] if self.times else STALE_S
        if gap >= STALE_S:
            self.burst(NEAREST)
        elif gap >= INTERVAL_S:
            self.burst(1)

    def burst(self, n: int):
        for _ in range(n):
            self.times.append(time.perf_counter())
            self.samples.append(kernel())

    def slowdown(self, at: float | None = None) -> float:
        """How much slower than the reference the host ran at time `at`
        (perf_counter), or over all samples."""
        k = np.asarray(self.samples)
        if at is not None:
            k = k[np.argsort(np.abs(np.asarray(self.times) - at))[:NEAREST]]
        return float(np.median(k)) / REF_S

    def slowdown_during(self, t0: float, t1: float) -> float:
        """Median slowdown over the samples taken between t0 and t1."""
        t = np.asarray(self.times)
        k = np.asarray(self.samples)[(t >= t0) & (t <= t1)]
        return float(np.median(k)) / REF_S

    def at_reference(self, timed: list[tuple[float, float]]) -> list[float]:
        """Durations of (duration, end time) samples at the reference speed."""
        return [d / self.slowdown(t) for d, t in timed]


class StartGauge:
    """Bare interpreter starts, taken around each timed new process."""

    def __init__(self, env: dict):
        self.env = env
        self.last = (-float("inf"), 0.0)  # (taken at, seconds)

    def _sample(self) -> float:
        if time.perf_counter() - self.last[0] > FRESH_S:
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True)
            t1 = time.perf_counter()
            self.last = (t1, t1 - t0)
        return self.last[1]

    def time(self, fn):
        """fn()'s result, its seconds as measured, and the slowdown against
        the reference: the mean of the bare starts before and after it
        over REF_START_S."""
        before = self._sample()
        t0 = time.perf_counter()
        out = fn()
        seconds = time.perf_counter() - t0
        after = self._sample()
        return out, seconds, (before + after) / (2 * REF_START_S)
