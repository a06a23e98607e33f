"""Statistics the benchmark reports: medians, tail percentiles, geomeans and
the failed-operation accounting. Pure functions, tested by test_stats.py."""

import math
import statistics

# A tail percentile is only reported where at least this many samples lie
# beyond it; with fewer samples the highest percentile that qualifies is
# used instead.
MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values, pct=99.0, min_beyond=MIN_BEYOND):
    """The pct-th percentile (nearest rank) of `values`, lowered to the
    highest percentile that still has `min_beyond` samples above it.

    Returns (value, percentile_used). When that percentile would fall below
    the median (20 or fewer samples), the median is returned as percentile
    50: a handful of samples has no tail to report."""
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(pct / 100.0 * n))  # 1-based nearest rank
    rank = min(rank, n - min_beyond)
    if rank < (n + 1) / 2:
        return median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / n


def geomean(values):
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean of a non-positive value")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def failed_frac(attempted, failed):
    """Failed operations (failed reference checks, shed requests, errors)
    over operations attempted. A run that attempted nothing has failed."""
    if attempted < 1:
        return 1.0
    if failed < 0 or failed > attempted:
        raise ValueError("failed count outside [0, attempted]")
    return failed / attempted
