"""Aggregation rules of the benchmark's metrics."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: tail percentiles considered, highest first
TAIL_PERCENTILES = (99, 95, 90, 75)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (1.0 for none)."""
    if not values:
        return 1.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], p: float) -> float:
    """``p``-th percentile, linear between the closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int, min_beyond: int = 10) -> Optional[int]:
    """Highest percentile of :data:`TAIL_PERCENTILES` with at least
    ``min_beyond`` of ``n`` samples beyond it (``None`` if none has)."""
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100.0 >= min_beyond:
            return p
    return None


def fraction(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
