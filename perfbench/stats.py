"""Arithmetic the benchmark reports with: medians, percentiles and the
open-loop latency of a paced feed.

Kept free of any ``repro`` import so the tests can check it alone.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence


def median(values: Sequence[float]) -> float:
    """The median; raises on an empty sample rather than inventing 0."""
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (the same rule as NumPy's default)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def due_times(start: float, count: int, rate: float) -> List[float]:
    """When each of ``count`` packets of an open-loop feed paced at
    ``rate`` packets/s is due, the first at ``start``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    return [start + index / rate for index in range(count)]


def open_loop_latencies(
    due: Sequence[float], done: Sequence[float]
) -> List[float]:
    """Per-packet latency measured from when each packet was *due*, not
    from when the generator got to send it: a stall then also delays
    every packet queued behind it."""
    if len(due) != len(done):
        raise ValueError("one completion time per due time")
    latencies = [finish - start for start, finish in zip(due, done)]
    if any(latency < 0 for latency in latencies):
        raise ValueError("a packet completed before it was due")
    return latencies


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator handed over each packet (0 when on time)."""
    if len(due) != len(sent):
        raise ValueError("one send time per due time")
    return [max(0.0, handed - start) for start, handed in zip(due, sent)]
