"""Host-speed reference and the arithmetic that normalizes timings by it.

On a shared two-core host a fixed piece of Python ranges over a factor of
two within a minute, and every timing moves with it.  The runner therefore
times a short fixed reference chunk (`reference_seconds()`) in its own
process right before and right after every measured thing, and also while a
long sample is paused, and reports each timing in *normalized seconds*: the
raw seconds scaled by NOMINAL_REF_S over the mean of the reference chunks
taken around and during it.  The reference never runs inside a measured
process, so a change to the program (a trace hook, a gc setting) cannot
shift both sides of the ratio.
"""

import math
import statistics
import time

# Iterations of one reference chunk and the time it is normalized to.
# NOMINAL_REF_S is fixed once: it sets the unit, not the measurement, so
# it must never be re-tuned between commits that are compared.
REF_ITERATIONS = 60_000
NOMINAL_REF_S = 0.02


def _kernel(n):
    # Integer arithmetic, tuple building and dict traffic: the operations
    # the enumerator and the formula code spend their time on.
    acc = 0
    seen = {}
    for i in range(n):
        key = (i & 1023, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += (i * i) % 13
    return acc + len(seen)


def reference_seconds():
    """Wall time of one fixed run of the reference kernel."""
    start = time.perf_counter()
    _kernel(REF_ITERATIONS)
    return time.perf_counter() - start


def adjacent_reference(chunks):
    """Host speed over a measurement: the mean of the reference chunks
    timed right before, during (while it was paused) and right after it."""
    if not chunks or min(chunks) <= 0:
        raise ValueError("reference times must be positive")
    return sum(chunks) / len(chunks)


def overlap(start, end, intervals):
    """Seconds of [start, end] covered by the (disjoint) intervals."""
    return sum(max(0.0, min(end, b) - max(start, a)) for a, b in intervals)


def normalize(raw_s, ref_s, nominal_s=NOMINAL_REF_S):
    """Raw seconds expressed on a host that runs the reference in nominal_s."""
    if ref_s <= 0:
        raise ValueError("reference time must be positive")
    return raw_s * nominal_s / ref_s


def tail_percentile(count):
    """Highest whole percentile with at least ten samples beyond it, or None."""
    if count <= 10:
        return None
    return math.floor(100 * (count - 10) / count)


def percentile(values, pct):
    """Nearest-rank percentile of the values."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def summary(values):
    """Median, tail percentile and count of one timing's samples."""
    pct = tail_percentile(len(values))
    return {
        "median": statistics.median(values),
        "count": len(values),
        "tail_pct": pct,
        "tail": None if pct is None else percentile(values, pct),
    }


def spread(values):
    """Inter-quartile distance over the median, as the steadiness check takes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
