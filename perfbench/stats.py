"""End-to-end metrics from one run's operation records."""
from __future__ import annotations

import math
import sys

# The tail is reported at a fixed percentile per workload
# (``TAIL_PERCENTILE`` of the classes in workloads.py), chosen by this rule.
MIN_BEYOND = 10

# JSON has no infinity: the largest double stands in for a percentile that
# falls on failed operations.
_INF_STANDIN = sys.float_info.max


def percentile(values, p):
    """Linear-interpolation percentile (numpy's default); +inf entries sort
    last and propagate only when the percentile reaches them."""
    ordered = sorted(values)
    rank = p / 100 * (len(ordered) - 1)
    lo = math.floor(rank)
    frac = rank - lo
    if frac == 0 or math.isinf(ordered[lo + 1]):
        return ordered[lo] if frac == 0 else math.inf
    return ordered[lo] + frac * (ordered[lo + 1] - ordered[lo])


def ops_beyond(n, p):
    """Number of the n samples ranked above the p-th percentile."""
    return n - 1 - math.floor(p / 100 * (n - 1))


def highest_tail_percentile(n, min_beyond=MIN_BEYOND):
    """Highest whole percentile with at least ``min_beyond`` of n samples
    above it, or None when n is too small for any."""
    return max((p for p in range(100) if ops_beyond(n, p) >= min_beyond), default=None)


def _finite(value):
    return value if math.isfinite(value) else _INF_STANDIN


def end_to_end(latencies_s, ok, setup_s, peak_rss_mb, tail_p):
    """The end-to-end metrics as {name: (value, unit)}, from times already
    scaled to the reference host speed (see speed.py).  ``ops_per_s``
    divides the successful operations by the time of all operations; a
    failed operation counts as +inf in the latency percentiles."""
    ms = [1e3 * t if good else math.inf for t, good in zip(latencies_s, ok)]
    done = sum(ok)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / sum(latencies_s), "1/s"),
        "op_p50_ms": (_finite(percentile(ms, 50)), "ms"),
        "op_tail_ms": (_finite(percentile(ms, tail_p)), "ms"),
        "ok_ratio": (done / len(ok), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def tally(status):
    """The result line's counts from per-operation statuses ("ok", "error",
    "wrong"): every non-ok operation failed, and a wrong output makes the
    run incorrect."""
    return {
        "correct": "wrong" not in status,
        "attempted": len(status),
        "failed": sum(s != "ok" for s in status),
    }
