"""Order statistics used by the benchmark and its spread checker."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence, Tuple


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def median_of_means(groups: Iterable[Sequence[float]]) -> float:
    """Median over groups of each group's mean: ``op_p50_s`` is the
    median over apps of an app's mean op time across a run's passes."""
    return statistics.median(statistics.fmean(group) for group in groups)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (0 when the median is 0)."""
    q1, __, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0
