"""Host-speed reference kernel and the sampler that runs it.

The benchmark shares a virtual machine with other tenants, and the
speed of its vCPU drifts by up to a factor of two, within seconds as
well as over tens of seconds.  Wall time and CPU time drift alike,
because the guest cannot see the host's contention.  So while a pass
runs, a SIGALRM handler runs this fixed kernel every SAMPLE_EVERY_S of
wall time, for about a tenth of that, also in the middle of a long
call into the package.  The handler's time is taken out of every
measured duration (Sampler.clock), and each call's time is scaled by
NOMINAL_NS over the mean kernel time per repetition of the samples
around it.  Drift that slows the call slows the kernel equally and
cancels; a slower package does not slow the kernel and shows.

The kernel mixes what the package's hot paths do: scalar float
arithmetic in Python, dual-number objects and frozen records that
allocate on every operation, and small numpy linear-algebra calls.  Set-up
time, which is process start and imports, is scaled instead by a fresh
interpreter that only imports numpy.  Neither reference may change:
their times are the units of every reported duration.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel time per repetition on the reference machine (2-vCPU Intel Xeon
# KVM guest, Python 3.11.7, numpy 2.4.6), so reported times read as
# milliseconds on that machine at its typical speed.
NOMINAL_NS = 90_000
# The sampler runs the kernel SAMPLE_REPS times (about 10 ms) every
# SAMPLE_EVERY_S of wall time.
SAMPLE_EVERY_S = 0.1
SAMPLE_REPS = 110
# A call is scaled by the samples taken during it and within WINDOW_NS
# of it: short enough to follow drift, long enough to average the
# jitter of short kernels.  The mean, not the median, of their times is
# used, because the speed can switch between samples of one call.
WINDOW_NS = 250e6

# A fresh interpreter that imports only numpy: the reference for set-up
# time, which is process start and imports rather than computation.
LAUNCH_CODE = "import numpy"
# Its wall time on the reference machine at typical speed.
NOMINAL_LAUNCH_NS = 150e6

_A = np.array([[2.0, 0.3, 0.1], [0.3, 1.5, 0.2], [0.1, 0.2, 1.0]])
_B = np.ones(3)


class _Dual:
    """Value with first and second derivative, as in the package's
    dual-number objectives: every operation allocates a new object."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0.0, d2=0.0):
        self.v, self.d1, self.d2 = v, d1, d2

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)
        return _Dual(self.v + o, self.d1, self.d2)

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.v * o.v, self.d1 * o.v + self.v * o.d1,
                         self.d2 * o.v + 2.0 * self.d1 * o.d1 + self.v * o.d2)
        return _Dual(self.v * o, self.d1 * o, self.d2 * o)

    def __truediv__(self, o):
        inv = 1.0 / o.v
        return self * _Dual(inv, -o.d1 * inv * inv, (2.0 * o.d1 * o.d1 * inv - o.d2) * inv * inv)


@dataclass(frozen=True)
class _Record:
    x: float
    v: float


def _kernel() -> float:
    acc = 0.0
    for i in range(15):
        x = 1.0 + i * 1e-3
        m11, m12, m22 = x, 0.1 * x, 2.0 * x
        for _ in range(8):
            det = m11 * m22 - m12 * m12
            m11, m12, m22 = m22 / det + 0.5, -m12 / det, m11 / det + 0.25
        acc += m11 + math.sqrt(m22)
        if i % 8 == 0:
            acc += float(np.linalg.solve(_A, _B)[0])
    for i in range(6):
        xd = _Dual(1.0 + i * 1e-3, 1.0)
        h = xd * xd + 2500.0
        y = (xd * 3.0 + 1.0) / (h * h + 1.0)
        rec = _Record(y.v + y.d1 + y.d2, float(i))
        acc += rec.x + rec.v
    return acc


def kernel_ns(reps: int) -> float:
    """Run the kernel reps times; returns the time per repetition."""
    t0 = time.perf_counter_ns()
    for _ in range(reps):
        _kernel()
    return (time.perf_counter_ns() - t0) / reps


class Sampler:
    """Samples the host's speed while a pass runs (use as a context
    manager).  Time is read with clock(), which leaves out the time spent
    in the sampler's own handler."""

    def __init__(self):
        self.busy_ns = 0
        self.at: list[int] = []        # clock() at each sample
        self.kernel: list[float] = []  # kernel time per repetition
        self.paused = False
        self._sampling = False
        self._old_handler = None

    def _sample(self, signum=None, frame=None) -> None:
        if self.paused or self._sampling:  # a slow kernel is not interrupted
            return
        self._sampling = True
        t0 = time.perf_counter_ns()
        self.at.append(t0 - self.busy_ns)
        self.kernel.append(kernel_ns(SAMPLE_REPS))
        self.busy_ns += time.perf_counter_ns() - t0
        self._sampling = False

    def clock(self) -> int:
        """Wall time in ns, less the time spent sampling."""
        while True:
            busy = self.busy_ns
            now = time.perf_counter_ns()
            if busy == self.busy_ns:  # no sample ran in between
                return now - busy

    def __enter__(self):
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.paused = False
        self._sample()

    def normalize(self, spans) -> list[float]:
        """Each (start, end) clock() span's duration in nominal ns: scaled
        by NOMINAL_NS over the mean kernel time of the samples within
        WINDOW_NS of the span, or of the nearest sample after it."""
        out = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(self.at, t0 - WINDOW_NS)
            hi = max(bisect.bisect_right(self.at, t1 + WINDOW_NS), lo + 1)
            ks = self.kernel[min(lo, len(self.kernel) - 1):hi]
            out.append((t1 - t0) * NOMINAL_NS / statistics.fmean(ks))
        return out

    def speed(self) -> float:
        """Host speed over the pass relative to the reference machine."""
        return NOMINAL_NS / statistics.fmean(self.kernel)
