"""Host speed, measured with a fixed pure-Python reference loop.

A shared machine runs the same pure-Python code up to twice as slowly in
spells that last from seconds to minutes, whatever the code; the thread's
CPU time slows with it, so the time is not simply taken by other guests.
A run therefore times the reference loop every ``EVERY_S`` seconds between
ops, and before and after every set-up, and scales each timed call by
``REFERENCE_S`` over the mean reference-loop time from ``WINDOW_S`` before
the call to ``WINDOW_S`` after it.  A time in reference seconds is the time
the call takes on this machine when the reference loop takes
``REFERENCE_S``.  The loop does the kind of work freeq does (short strings,
lists, dicts, sets, tuples and calls), and it is part of the benchmark, so
no change to freeq moves it.  Unscaled times are kept in the run's detail.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

# About the reference loop's time (one sample, the median of three runs)
# on the machine the bounds were set on: 2-vCPU shared VM, CPython 3.11.
REFERENCE_S = 0.002
EVERY_S = 0.25
# Long calls see the speed of spells the samples at their two ends miss;
# a window of samples on either side follows the speed more closely.
WINDOW_S = 1.0
RUNS_PER_SAMPLE = 3

_WORDS = tuple(
    "".join(random.Random(i).choice("aAbB") for _ in range(24)) for i in range(48)
)
_INVERSE = str.maketrans("aAbB", "AaBb")


def _reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.translate(_INVERSE):
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def reference_loop() -> int:
    """Reduce products of fixed words and count them in a dict and a set."""
    counts: dict[str, int] = {}
    seen: set[tuple[str, int]] = set()
    for u in _WORDS:
        for v in _WORDS[:6]:
            w = _reduce(u + v[::-1].translate(_INVERSE))
            counts[w[:4]] = counts.get(w[:4], 0) + len(w)
            seen.add((w[-3:], len(w)))
    return len(counts) + len(seen)


def sample(clock=time.perf_counter) -> float:
    """The median time of a few runs of the reference loop."""
    times = []
    for _ in range(RUNS_PER_SAMPLE):
        started = clock()
        reference_loop()
        times.append(clock() - started)
    return statistics.median(times)


class Speed:
    """Reference-loop samples taken through a run, and the scale they give."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.at: list[float] = []  # when each sample was taken
        self.times: list[float] = []  # its reference-loop time
        self.last = float("-inf")

    def take(self) -> None:
        self.at.append(self.clock())
        self.times.append(sample(self.clock))
        self.last = self.clock()

    def maybe_take(self) -> None:
        """Takes a sample when ``EVERY_S`` have passed since the last one."""
        if self.clock() - self.last >= EVERY_S:
            self.take()

    def scale(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean of the samples taken from
        ``WINDOW_S`` before ``start`` to ``WINDOW_S`` after ``end``, or over
        the nearest sample when there is none in that window."""
        if not self.times:
            raise ValueError("no reference-loop samples")
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        around = self.times[lo:hi] or [self.times[min(lo, len(self.times) - 1)]]
        return REFERENCE_S / statistics.fmean(around)
