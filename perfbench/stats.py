"""Summary statistics for the benchmark's samples."""

from __future__ import annotations

import math
import statistics

# candidate tail percentiles, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[rank - 1]


def tail(values):
    """(p, value) for the highest percentile in TAIL_LADDER that leaves at
    least MIN_BEYOND samples above it, or None when there are too few."""
    n = len(values)
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def latency_summary(values):
    """Median, the reportable tail percentile and the sample count."""
    return {"p50": median(values), "tail": tail(values), "n": len(values)}


def failed_share(attempted, failed):
    if attempted < 1:
        raise ValueError("no operations attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted
