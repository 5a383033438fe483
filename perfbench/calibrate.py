"""Host-speed calibration.

On a shared machine the speed of the host drifts by tens of percent within
seconds and from minute to minute, and CPU time drifts with wall time, so a
raw command time says as much about the neighbours as about the program.
The benchmark therefore runs a short slice of fixed work, independent of
sp2span, between its timed segments, and scales each segment by the speed
the slices just before and after it saw:

    scaled = raw * REFERENCE_SLICE_S / mean(slice before, slice after)

A scaled time is the segment's time on a host where one slice takes
REFERENCE_SLICE_S.  The slice mixes the kinds of work sp2span does (small
slotted objects with float and Fraction arithmetic, and numpy elimination
on small matrices), so host phases that slow one slow the other alike.
Garbage collection is off during a slice, so the program's heap does not
change the slice's cost.
"""

from __future__ import annotations

import functools
import gc
import time
from fractions import Fraction

import numpy as np

# Seconds one slice takes in a fast phase of the 2-core host the benchmark
# was built on; a fixed constant, so scaled times compare across commits.
REFERENCE_SLICE_S = 0.04


class _Quad:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, o):
        return _Quad(
            self.a * o.a - self.b * o.b - self.c * o.c - self.d * o.d,
            self.a * o.b + self.b * o.a + self.c * o.d - self.d * o.c,
            self.a * o.c - self.b * o.d + self.c * o.a + self.d * o.b,
            self.a * o.d + self.b * o.c - self.c * o.b + self.d * o.a,
        )


def _objects(one, steps: int):
    r = _Quad(one / 7, one, -one / 2, one / 3)
    for i in range(1, steps + 1):
        q = _Quad(one * i / 3, one / i, one * (i % 5) / 4, one / (i + 1))
        q = q * r * r


def _elimination(steps: int):
    base = np.arange(1.0, 101.0).reshape(10, 10) % 7.0 + np.eye(10)
    for _ in range(steps):
        a = base.copy()
        rows = list(range(10))
        while rows:
            sub = np.abs(a[np.ix_(rows, rows)])
            ri, _ = divmod(int(np.argmax(sub)), sub.shape[1])
            r = rows.pop(ri)
            a[rows, :] -= np.outer(a[rows, r] / a[r, r], a[r, :])


def calibration_slice() -> float:
    """Seconds one slice of fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _objects(1.0, 6000)
        _objects(Fraction(1), 150)
        _elimination(50)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Runs calibration slices and pairs each timed segment with the slices
    on either side of it."""

    def __init__(self):
        self.last = calibration_slice()
        self.slices = [self.last]

    def tick(self) -> float:
        """Run one slice after a segment; returns the speed around that
        segment as REFERENCE_SLICE_S over the mean of this slice and the
        one before it (above 1 on a fast host, below 1 on a slow one)."""
        now = calibration_slice()
        around = (self.last + now) / 2
        self.last = now
        self.slices.append(now)
        return REFERENCE_SLICE_S / around

    def scaled(self, raw_s: float) -> float:
        """raw_s, a segment that has just ended, at reference host speed."""
        return raw_s * self.tick()


class Segmenter:
    """Cuts timed work into segments of at least `min_s` seconds at the
    points where `boundary` is called, runs a slice at each cut, and then
    `between`, if given.  Neither the slices nor `between` fall inside a
    segment, so they add nothing to the time measured."""

    def __init__(self, clock: HostClock, min_s: float, between=None):
        self.clock = clock
        self.min_s = min_s
        self.between = between
        self.segments: list = []
        self.t0 = time.perf_counter()

    def start(self) -> None:
        self.segments = []
        self.t0 = time.perf_counter()

    def boundary(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self.t0 >= self.min_s:
            self.segments.append((now - self.t0, self.clock.tick()))
            if self.between is not None:
                self.between()
            self.t0 = time.perf_counter()

    def finish(self):
        """(raw, scaled) seconds since `start`: the segments' time, and the
        sum of each segment's time scaled by the speed around it."""
        self.boundary(force=True)
        raw = sum(seconds for seconds, _ in self.segments)
        return raw, sum(seconds * speed for seconds, speed in self.segments)

    def hook(self, fn):
        """Wrap fn so each call may start a new segment."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.boundary()
            return fn(*args, **kwargs)

        return wrapper
