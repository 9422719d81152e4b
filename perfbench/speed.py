"""Host speed, measured alongside the workload by a fixed probe.

On a shared host the same code runs at different speeds from one minute
to the next: neighbours contend for the cores and caches, and the process
CPU time slows with the wall time, so measuring CPU time does not help. The end-to-end
times are therefore scaled to one reference speed. A fixed probe, pure
standard-library Python that never calls the library, runs about every
``INTERVAL_S`` seconds from a ``SIGALRM`` handler, in the middle of
whatever the workload is doing. A span of the workload that took ``t``
seconds while the probe took ``d`` seconds is reported as
``t * REFERENCE_S / d``: the time it would have taken on a host where the
probe takes ``REFERENCE_S``. A change to the library leaves the probe as it
is, so it moves the scaled times as much as it moves the raw ones.

The time spent in the probe is taken out of every span that it
interrupts.
"""

from __future__ import annotations

import bisect
import gc
import itertools
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# A round figure near the probe's median time, inside a run, on the 2-CPU
# host the benchmark was tuned on. Scaled times read as times on a host
# where the probe takes this long.
REFERENCE_S = 0.0016
INTERVAL_S = 0.05
# Each probe is smoothed with the median of itself and this many
# neighbours on each side, so that one probe cut by a context switch does
# not count.
SMOOTH = 5

# The probe does the kinds of work the library does, so that contention
# slows it as it slows the library: it composes permutations of 12 points,
# counts them in a dict, sorts them and adds fractions (small data), then
# joins signed permutations of 6 points into orbits through a freshly built
# index, as the brute-force orbit oracle does (a larger working set that
# it allocates anew each time).
_PERMS = [tuple(random.Random(i).sample(range(12), 12)) for i in range(80)]
_TAUS = list(itertools.permutations(range(6)))[:180]
_SIGMA = (1, 2, 0, 4, 3, 5)


def _neg(x: int) -> int:
    return -x


def _small() -> tuple[Fraction, int]:
    seen: dict[tuple, int] = {}
    acc = Fraction(0)
    for p in _PERMS:
        q = tuple(p[i] for i in p)
        seen[q] = seen.get(q, 0) + 1
        acc += Fraction(p[0] + 1, p[1] + 1)
        sorted(q, key=_neg)
    return acc, len(seen)


def _orbits() -> int:
    pairs = [(tau, eps) for tau in _TAUS for eps in (1, -1)]
    index = {pair: i for i, pair in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, (tau, eps) in enumerate(pairs):
        moved = [0] * 6
        for v in range(6):
            moved[_SIGMA[v]] = tau[v]
        j = index.get((tuple(moved), -eps))
        if j is not None:
            a, b = find(i), find(j)
            parent[max(a, b)] = min(a, b)
    return sum(find(i) == i for i in range(len(pairs)))


def kernel() -> tuple[Fraction, int, int]:
    return (*_small(), _orbits())


KERNEL_RESULT = kernel()


def time_kernel() -> float:
    """One probe with the collector held off, so that it never pays for
    the library's garbage; returns its time in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        result = kernel()
        elapsed = perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
    if result != KERNEL_RESULT:
        raise RuntimeError("the speed probe computed a different result")
    return elapsed


class Probe:
    """Runs the kernel on a timer and scales spans of time by its speed."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.times: list[float] = []
        self.spent = 0.0  # seconds inside the handler, probe included
        self._old_handler = None

    def _on_alarm(self, signum, frame) -> None:
        t0 = perf_counter()
        elapsed = time_kernel()
        self.starts.append(t0)
        self.times.append(elapsed)
        self.spent += perf_counter() - t0

    def work_clock(self) -> float:
        """``perf_counter`` with the time spent in the probe taken out."""
        return perf_counter() - self.spent

    def start(self) -> None:
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler or signal.SIG_DFL)
        if not self.times:  # a span shorter than one interval
            self._on_alarm(signal.SIGALRM, None)
        self.factors = [REFERENCE_S / statistics.median(self.times[max(0, i - SMOOTH):i + SMOOTH + 1])
                        for i in range(len(self.times))]

    def factor(self, start: float, end: float) -> float:
        """Mean scale factor of the probes that ran in ``[start, end]``;
        for a span too short to hold one, that of the probe nearest its
        middle. Call after ``stop``."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if hi > lo:
            return statistics.fmean(self.factors[lo:hi])
        mid = (start + end) / 2
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.starts)),
                   key=lambda i: abs(self.starts[i] - mid))
        return self.factors[near]
