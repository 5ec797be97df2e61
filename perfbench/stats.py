"""Order statistics over raw samples.

Every timing the benchmark reports is computed here from the raw
samples, never from histogram buckets: the median, the named p99, the
highest standard percentile that still has at least ten samples beyond
it (the one a reader may trust at that sample count), and the
fast-side quartile over rounds that the end-to-end timings report.
"""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, ascending.
PERCENTILES = (90.0, 99.0, 99.9, 99.99)

#: Samples that must lie beyond a percentile before it is reported.
MIN_BEYOND = 10


def quantile(sorted_values, fraction: float):
    """Nearest-rank quantile of already-sorted samples."""
    if not sorted_values:
        raise ValueError("quantile of no samples")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def tail_percentile(count: int) -> float | None:
    """Highest of :data:`PERCENTILES` with ``MIN_BEYOND`` samples past it."""
    best = None
    for percentile in PERCENTILES:
        if count * (100.0 - percentile) / 100.0 >= MIN_BEYOND:
            best = percentile
    return best


def summarize(values) -> dict:
    """``n``, ``p50``, ``p99`` and the trustworthy tail of ``values``."""
    ordered = sorted(values)
    tail = tail_percentile(len(ordered))
    return {
        "n": len(ordered),
        "p50": quantile(ordered, 0.5),
        "p99": quantile(ordered, 0.99),
        "tail_pct": tail,
        "tail": quantile(ordered, tail / 100.0) if tail is not None else None,
    }


def fast_quartile(values, better: str) -> float:
    """The quartile of per-round values on the fast side: the lower
    quartile of times and latencies (``better="lower"``), the upper one
    of rates.

    Other tenants of a shared host only ever add time, in bursts that come
    and go within a run.  The fast-side quartile of many short rounds
    stays put while up to three rounds in four are slowed; a median, or a
    percentile pooled over the whole run, moves once a few are.
    """
    values = list(values)
    if len(values) < 2:
        return values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1 if better == "lower" else q3


def spread(values) -> float:
    """Interquartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` (the exclusive method),
    which is how run-to-run spread is judged against a metric's bound.
    """
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    centre = statistics.median(values)
    return (q3 - q1) / abs(centre) if centre else math.inf
