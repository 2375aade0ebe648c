"""The reference loop that defines the benchmark's time unit, ``ru``.

Host speed on small shared machines drifts by tens of percent within
seconds, so raw seconds are not comparable between runs.  A timed
interval is therefore divided by the duration of a fixed pure-Python
loop measured in the same worker, around and during the interval: a
timer signal runs the loop every ``PERIOD`` seconds while requests run,
and a request's unit is the mean loop duration over the samples taken
from ``MARGIN`` before its start to ``MARGIN`` after its end, and over
at least ``MIN_SAMPLES`` samples.  The time
the samples themselves take inside a request is subtracted from it.

The loop does what skewrank spends its time on: ``Fraction`` elimination
and dict updates.  On a 2-core host whose speed flipped between two
states, it tracked the program better than a small-integer loop or a
loop over a large dict (per-process ratio range 5% against 9% and 16%).
Never change ``_loop``: every ``*_ru`` figure ever recorded is in units
of it.
"""

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD = 0.025
MARGIN = 0.1
MIN_SAMPLES = 20


def _loop():
    """A 6x6 rational elimination and some dict updates (~0.5 ms)."""
    rows = [[Fraction(i * 7 + j, j + 1) for j in range(6)] for i in range(6)]
    for r in range(6):
        p = rows[r][r] or Fraction(1)
        for i in range(r + 1, 6):
            t = rows[i][r] / p
            rows[i] = [a - t * b for a, b in zip(rows[i], rows[r])]
    table = {}
    for i in range(200):
        table[i & 31] = table.get(i & 31, 0) + i * i
    return rows, table


def measure(n=5):
    """Median seconds of ``n`` back-to-back loops."""
    times = []
    for _ in range(n):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[n // 2]


class Sampler:
    """Timer-driven samples of ``_loop``: (start time, duration) pairs."""

    def __init__(self, on_sample=None):
        self.starts = []
        self.durations = []
        self._busy = False
        self._on_sample = on_sample    # told each sample's seconds

    def probe(self, *_):
        if self._busy:                 # a signal landed inside a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        _loop()
        self.starts.append(t0)
        self.durations.append(time.perf_counter() - t0)
        if self._on_sample is not None:
            self._on_sample(self.durations[-1])
        self._busy = False

    def start(self, warmup=5):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        for _ in range(warmup):
            self.probe()

    def stop(self, cooldown=5):
        for _ in range(cooldown):
            self.probe()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, lo, hi):
        return bisect_left(self.starts, lo), bisect_right(self.starts, hi)

    def unit(self, start, end):
        """Mean loop seconds from MARGIN before ``start`` to MARGIN after
        ``end``, widened to at least MIN_SAMPLES samples: the seconds in
        one ``ru`` for that interval."""
        i, j = self._window(start - MARGIN, end + MARGIN)
        while j - i < MIN_SAMPLES and (i > 0 or j < len(self.starts)):
            i, j = max(i - 1, 0), min(j + 1, len(self.starts))
        return sum(self.durations[i:j]) / (j - i)

    def inside(self, start, end):
        """Seconds the samples took within [start, end]."""
        i, j = self._window(start, end)
        return sum(self.durations[i:j])
