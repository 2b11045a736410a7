"""Request times corrected for the speed of a shared host.

On a host shared with other tenants the same work can run 10-50 % slower
for stretches of seconds to minutes, which swamps a change to the program.
``SampledClock`` measures the host's speed while the program runs: a timer
signal interrupts the caller every INTERVAL_S, and the handler times one
fixed reference slice (small NumPy kernels, a LAPACK eigenvalue call, a
pure-Python loop and a pass over an array larger than the L2 cache, the
same mix of work as the package).  A timed region's wall time, less the
time spent in the handler, is scaled by SLICE_S / median(slice times seen
during the region): it reads as the region's time on a host where one slice
takes SLICE_S.  A region shorter
than WINDOW samples uses the last WINDOW samples instead, and so does a
region that waits for a child process (``paused``).

The reference code is part of the benchmark, not of the program, so a
faster or slower program moves the corrected times exactly as it moves the
raw ones.
"""
from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
WINDOW = 9
# Median slice time on a 2-vCPU x86-64 host, Python 3.11, NumPy 2.4 with OpenBLAS
# pinned to one thread; the corrected times read as seconds at that speed.
SLICE_S = 0.0015


class ReferenceSlice:
    """A fixed piece of work whose time tracks the host's current speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.quartics = rng.standard_normal((4, 5))
        self.x = np.linspace(0.0, 2.0 * np.pi, 720)
        self.big = rng.standard_normal(1 << 19)     # 4 MiB: past the L2 cache
        self.out = np.empty_like(self.big)

    def __call__(self):
        np.multiply(self.big, 1.0000001, out=self.out)
        acc = float(self.out[0])
        for row in self.quartics:
            acc += float(np.abs(np.roots(row)).sum())
        x = self.x
        for k in range(4):
            g = np.sin(x[:, None] + k) * np.cos(x[None, ::8] * 2.0)
            acc += float(np.argmin(g, axis=1).sum())
        s = 0
        for i in range(1500):
            s += (i * i) % 7
        return acc + s


class WallClock:
    """Plain wall time, for runs that must not be interrupted (the traced run)."""

    def mark(self):
        return time.perf_counter()

    def seconds(self, mark):
        return time.perf_counter() - mark


class SampledClock:
    """Wall time corrected by reference slices timed during the region.

    Use as a context manager: the timer runs only inside the ``with`` block.
    """

    def __init__(self):
        self.slice = ReferenceSlice()
        self.samples = []          # seconds per reference slice
        self.handler_s = 0.0       # time spent in the handler so far
        self._busy = False
        self._previous = None

    def __enter__(self):
        for _ in range(WINDOW):    # warm up, and fill the first window
            self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @contextlib.contextmanager
    def paused(self):
        """Stop sampling for a region whose work runs in another process,
        where a slice in this one would compete with it; the region is
        corrected by WINDOW samples taken just before it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        for _ in range(WINDOW):
            self._sample(None, None)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.slice()
        self.samples.append(time.perf_counter() - t0)
        self.handler_s += time.perf_counter() - t0
        self._busy = False

    def mark(self):
        return time.perf_counter(), self.handler_s, len(self.samples)

    def seconds(self, mark):
        t0, handler0, i = mark
        wall = time.perf_counter() - t0 - (self.handler_s - handler0)
        j = len(self.samples)
        window = self.samples[max(0, min(i, j - WINDOW)):j]
        return wall * SLICE_S / statistics.median(window)

    def slowdown(self):
        """Quartiles of slice time / SLICE_S over the whole run (1 = nominal)."""
        if len(self.samples) < 2:
            return (1.0, 1.0, 1.0)
        q = statistics.quantiles(self.samples, n=4)
        return tuple(v / SLICE_S for v in q)
