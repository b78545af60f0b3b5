"""Machine-speed calibration for the timings of a benchmark run.

On a shared 2-vCPU virtual machine the speed of the CPU a process runs on
changes by up to a factor of two from one second to the next, and its CPU
time changes with it (so this is not time stolen by the hypervisor but a
slower CPU).  No bound a benchmark may set survives that.  So, all through a
workload process, a timer signal interrupts it every ``PERIOD_S`` seconds
and times a fixed piece of work, the *kernel*.  Each analysis time is then
its wall time less the time the kernels took during it, scaled by the mean
of ``REFERENCE_S / kernel time`` over the kernels run during the analysis
and within ``WINDOW_S`` of it.  The reported times are therefore seconds on
a machine where the kernel takes ``REFERENCE_S``; the raw times are printed
beside them.

The kernel does the kinds of work imclim does, and none of imclim's code (a
faster imclim must not make the kernel faster): exact Fraction arithmetic,
and numpy operations on many small arrays, which are bound by interpreter
overhead rather than by arithmetic.  A kernel of 40x40 matrix products
tracked the analyses' speed far worse (run medians of the same analysis
spread 20% instead of 3%).  Sampling during each analysis rather than only
between analyses matters as much: the speed changes within one 0.8 s
analysis.  The kernel runs in the analysing process itself, since another
process runs on the other CPU, whose speed does not follow this one's.
Garbage collection is off while it runs, so the program's heap does not
change the kernel's time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.001
PERIOD_S = 0.02
WINDOW_S = 0.1
MIN_SAMPLES = 4

_XS = [Fraction(i, 7) for i in range(1, 40)]
_ROWS = [np.linspace(0.0, 1.0, 32) * (i + 1) for i in range(16)]


def kernel_seconds() -> float:
    """Time of one fixed piece of Fraction and small-array numpy work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for x in _XS:
            total += x * x
        for _ in range(20):
            residuals = np.max(np.abs(np.stack(_ROWS) - _ROWS[0]), axis=1)
            bool((residuals == 0.0).any())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedLog:
    """Kernel times sampled on a timer signal, to scale the analyses they overlap."""

    def __init__(self):
        self.times: list[float] = []  # monotonic midpoints, ascending
        self.kernels: list[float] = []
        self.spent_ns = 0  # wall time taken by the signal handler so far

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signum, _frame) -> None:
        entered = time.perf_counter_ns()
        now = time.monotonic()
        kernel = kernel_seconds()
        self.times.append(now + kernel / 2)
        self.kernels.append(kernel)
        self.spent_ns += time.perf_counter_ns() - entered

    def factor(self, start: float, end: float) -> float:
        """Mean of ``REFERENCE_S / kernel time`` over the kernels near ``[start, end]``.

        Uses the kernels run within ``WINDOW_S`` of the interval, widened to
        the nearest ``MIN_SAMPLES`` when there are fewer.
        """
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return statistics.fmean(REFERENCE_S / k for k in self.kernels[lo:hi])
