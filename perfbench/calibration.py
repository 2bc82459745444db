"""Calibration kernel: rescales every timing to a fixed nominal machine speed.

The vCPUs this benchmark runs on change speed by up to a factor of two, in
phases shorter than one item, so raw wall-clock times do not repeat.  A
fixed pure-Python ``Fraction`` kernel measures the machine's speed while a
segment (an item or a set-up step) runs: an interval timer runs the kernel
every ``SAMPLE_PERIOD_S`` inside the segment, and the kernel runs once more
right after it.  The segment's time, less the time spent in those kernel
runs, is divided by the mean kernel duration over the segment (the run
after the previous segment, those inside, the run after) and multiplied by
``NOMINAL_KERNEL_S``.  The result is the segment's time on a machine where
the kernel takes exactly the nominal duration.

The kernel, ``NOMINAL_KERNEL_S`` and ``SAMPLE_PERIOD_S`` define the unit
every reported time is measured in.  Changing any of them changes every
figure, so none may change once ``BENCHMARK.json`` has landed.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

# Duration of one kernel run on the nominal machine.
NOMINAL_KERNEL_S = 0.002
# Interval between kernel runs inside a timed segment.
SAMPLE_PERIOD_S = 0.02


def _eliminate(n: int) -> Fraction:
    """Determinant of the n x n Hilbert matrix plus identity, by elimination."""
    m = [[Fraction(1, i + j + 1) + (1 if i == j else 0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for c in range(n):
        piv = m[c][c]
        det *= piv
        for i in range(c + 1, n):
            f = m[i][c] / piv
            if f:
                row_i, row_c = m[i], m[c]
                for j in range(c, n):
                    row_i[j] -= f * row_c[j]
    return det


_KERNEL_DET = _eliminate(9)


def kernel_run() -> float:
    """Seconds one kernel run (one exact 9 x 9 elimination) takes, GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        det = _eliminate(9)
        elapsed = time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
    if det != _KERNEL_DET:
        raise ArithmeticError("calibration kernel lost exactness")
    return elapsed


class Calibrator:
    """Times segments and rescales them by the kernel runs around and inside them."""

    def __init__(self) -> None:
        self.kernels: list[float] = [kernel_run()]
        self._active = False
        self._inside: list[float] = []
        self._inside_s = 0.0

    def _on_alarm(self, signum, frame) -> None:
        if not self._active:
            return
        t0 = time.perf_counter()
        self._inside.append(kernel_run())
        self._inside_s += time.perf_counter() - t0

    def measure(self, fn, *args):
        """Run fn(*args); returns (result, raw seconds, rescaled seconds).

        Raw seconds exclude the kernel runs made inside the segment.
        """
        self._inside = []
        self._inside_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            self._active = False
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        after = kernel_run()
        samples = [self.kernels[-1]] + self._inside + [after]
        self.kernels += self._inside + [after]
        raw = elapsed - self._inside_s
        return result, raw, raw * NOMINAL_KERNEL_S / statistics.fmean(samples)
