"""Summary statistics for the benchmark's latency samples.

A run produces one latency sample per operation, labelled by the op's
input and scaled to reference seconds (see speed.py).  An input may run
several times in a run; every statistic here first reduces its samples to
one time per distinct input, so each distinct input weighs the same however
often it ran.  Nothing here touches the library.
"""

from __future__ import annotations

import math
import statistics

TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, percentile: float):
    """The nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def input_median(samples) -> dict[str, float]:
    """Median latency per input, from ``(input, latency)`` samples."""
    by_input: dict[str, list[float]] = {}
    for label, latency in samples:
        by_input.setdefault(label, []).append(latency)
    return {label: statistics.median(times) for label, times in by_input.items()}


def group_time(per_input: dict[str, float], inputs) -> float:
    """A family's time: the mean over its inputs of each input's time."""
    inputs = list(inputs)
    if not inputs:
        raise ValueError("empty group")
    return sum(per_input[i] for i in inputs) / len(inputs)


def geomean(values) -> float:
    """Geometric mean: every value moves it by the same factor, so a 2x
    change of one cheap input counts as much as one of an expensive input."""
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_rate(per_input: dict[str, float]) -> float:
    """Ops per second of a pass that runs every distinct input once, each in
    its time."""
    return len(per_input) / sum(per_input.values())


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least ten
    values beyond it, p = 100 (n - 10) / n over n values; the median when
    there are ten values or fewer."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_MIN_BEYOND:
        return 50.0, nearest_rank(ordered, 50.0)
    return 100.0 * (n - TAIL_MIN_BEYOND) / n, ordered[n - TAIL_MIN_BEYOND - 1]
