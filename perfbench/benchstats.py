"""Order statistics and failure counting for the benchmark (pure Python)."""

from __future__ import annotations

import math
import statistics


def percentile(values, q: float) -> float:
    """The q-th percentile, interpolating linearly between order statistics.

    Rank (n - 1) * q / 100, as numpy's default ``percentile`` method.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of n samples lie strictly above the q-th percentile's rank."""
    if n < 1:
        raise ValueError("need at least one sample")
    return n - 1 - math.floor((n - 1) * q / 100.0)


def failed_frac(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted


def relative_spread(values) -> float:
    """Distance between the first and third quartiles, over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
