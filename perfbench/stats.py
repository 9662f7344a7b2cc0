"""Order statistics used by every workload.

Kept free of any ``repro`` import so the benchmark's own math can be
tested without building a simulated machine.
"""

from __future__ import annotations

import math
from typing import Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it; a p99 therefore needs >= 1000 samples, a p90 >= 100.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def min_samples_for(p: float) -> int:
    """Smallest sample count whose nearest-rank ``p``-th percentile has
    ``MIN_BEYOND`` samples strictly above its rank."""
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = 1
    while n - math.ceil(p / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, refusing samples too small to carry it.

    The rank is ``ceil(p/100 * n)`` (1-based) over the sorted values;
    ``n - rank`` samples lie beyond it and must be >= ``MIN_BEYOND``.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    n = len(values)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n == 0 or n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} needs >= {min_samples_for(p)} samples "
            f"({MIN_BEYOND} beyond it), got {n}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median (mean of the middle pair for even counts)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])

