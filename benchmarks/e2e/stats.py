"""Sample summaries shared by the harness, ``compare.py`` and ``spread.py``."""

from __future__ import annotations

import statistics

#: percentiles a timing may report above its median, lowest first
_TAIL_PERCENTILES = (75, 90, 95, 99)


def percentile(samples, pct: float) -> float:
    """Linear-interpolated percentile of ``samples`` (0 <= pct <= 100)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def timing_summary(samples) -> dict:
    """Median, the highest percentile with ten samples beyond it, count.

    Below 20 samples no tail percentile is supported and ``hi`` is the
    maximum (``hi_pct`` 100), so the key set never depends on the count.
    """
    samples = list(samples)
    n = len(samples)
    hi_pct = 100
    for pct in _TAIL_PERCENTILES:
        if n >= 20 and n * (100 - pct) / 100.0 >= 10:
            hi_pct = pct
    return {
        "p50": percentile(samples, 50),
        "hi": percentile(samples, hi_pct),
        "hi_pct": hi_pct,
        "n": n,
    }


def rep_summary(samples) -> dict:
    """Median with min, max and count over the repetitions of one run."""
    samples = list(samples)
    return {
        "median": statistics.median(samples),
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
        "samples": samples,
    }


def relative_spread(samples) -> float:
    """Run-to-run spread as a share of the median.

    Four or more samples: the distance between the first and third
    quartile (``statistics.quantiles(n=4)``), the figure the benchmark
    contract uses.  Fewer: the full range, the only spread there is.
    """
    samples = list(samples)
    median = statistics.median(samples)
    if len(samples) < 2 or median == 0:
        return 0.0
    if len(samples) >= 4:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        return (q3 - q1) / abs(median)
    return (max(samples) - min(samples)) / abs(median)
