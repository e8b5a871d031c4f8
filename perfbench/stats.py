"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math

STANDARD_PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)


def nearest_rank(values, pct: float) -> float:
    """The smallest sample with at least pct % of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(values) -> tuple[float, float] | None:
    """(pct, value) for the highest standard percentile that still has at
    least ten samples beyond it, or None when there are too few samples."""
    best = None
    for pct in STANDARD_PERCENTILES:
        value = nearest_rank(values, pct)
        if sum(1 for v in values if v > value) >= 10:
            best = (pct, value)
    return best

