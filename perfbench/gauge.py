"""Machine-speed gauge for runs on shared hosts.

The sandbox this benchmark was built on changes speed by up to a factor of
1.7 within seconds: other tenants share the host.  The same query list
measured twice can differ by 30%.  The gauge samples that speed while a run
measures, by timing a fixed calibration loop of Fraction and big-integer
arithmetic, the kind of work quasinv does.  A time is scaled by
REFERENCE_S / (median of the samples taken within WINDOW_PAD_S of the
interval it was measured in, or of the whole run's samples when there were
too few), which gives seconds at the reference speed: the speed at which
one calibration takes REFERENCE_S.

Work done in this process is sampled by a timer signal every PERIOD_S, on
the main thread between the program's own bytecodes; that costs about 1% of
the run, equally on every commit.  While a child process works, the
benchmark samples only between children instead: the two vCPUs slow each
other down, so a sample taken next to a busy child measures the child, not
the machine.  REFERENCE_S fixes the unit: changing it would rescale every
recorded time, so it stays as it is.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.05
WINDOW_PAD_S = 1.0
MIN_WINDOW_SAMPLES = 8
REFERENCE_S = 4.3e-4  # median calibration on the 2-vCPU sandbox, idle process
_BASE_A, _BASE_B = 3 ** 200, 7 ** 150


def calibration() -> float:
    """Seconds for a fixed mix of Fraction and big-integer arithmetic.  The
    collector is paused meanwhile, so the time does not depend on how many
    objects the measured program keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 60):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        x = 0
        for _ in range(150):
            x = (_BASE_A * _BASE_B + x) % 1000003
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Calibration samples of one run."""

    def __init__(self):
        self.samples = []  # (perf_counter at the start, seconds)

    def sample(self, *_signal_args) -> None:
        self.samples.append((perf_counter(), calibration()))

    @contextmanager
    def ticking(self):
        """Sample every PERIOD_S while the block runs in this process."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start=None, end=None) -> float:
        """Multiply a time measured between `start` and `end` (perf_counter
        values) by this to get reference-speed time; without an interval,
        the whole run's factor."""
        if not self.samples:
            self.sample()
        chosen = []
        if start is not None:
            chosen = [s for t, s in self.samples
                      if start - WINDOW_PAD_S <= t <= end + WINDOW_PAD_S]
        if len(chosen) < MIN_WINDOW_SAMPLES:
            chosen = [s for _, s in self.samples]
        return REFERENCE_S / statistics.median(chosen)
