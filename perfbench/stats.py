"""Pure arithmetic shared by the benchmark: percentiles, the tail rule,
open-loop latency, and span self time.

Everything here is side-effect free so ``perfbench/tests`` can pin it.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer make it one or two outliers, not a distribution.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation between ranks.

    Raises:
        ValueError: If ``values`` is empty or ``q`` is outside [0, 100].
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(count: int) -> float | None:
    """The highest tail percentile with ``MIN_SAMPLES_BEYOND`` samples beyond it.

    ``None`` when even the lowest candidate lacks them: the tail is then
    not distinguishable from the median and is omitted.
    """
    for q in TAIL_PERCENTILES:
        if count * (100.0 - q) / 100.0 >= MIN_SAMPLES_BEYOND - 1e-9:
            return q
    return None


def poisson_offsets(rng, rate: float, count: int) -> list[float]:
    """Arrival offsets (seconds from the start) of ``count`` Poisson arrivals.

    The process is conditioned on its count: exponential gaps are scaled so
    the ``count`` arrivals span exactly ``count / rate`` seconds, which keeps
    the bursts of a Poisson process but not the run-to-run drift of its
    overall rate.  The first request is due at offset 0.  ``rng`` is a
    :class:`random.Random`.
    """
    gaps = [rng.expovariate(rate) for _ in range(count)]
    scale = (count / rate) / sum(gaps)
    offsets = [0.0]
    for gap in gaps[:-1]:
        offsets.append(offsets[-1] + gap * scale)
    return offsets[:count]


def due_latency(due: float, completed: float) -> float:
    """Open-loop latency: from when a request was *due*, not when it was sent.

    A stalled generator that sends late would otherwise hide the wait it
    imposed; timing from the due time charges that wait to the system.
    """
    return completed - due


def send_lag(due: float, sent: float) -> float:
    """How late the open-loop generator sent a request (never negative)."""
    return max(0.0, sent - due)


class Span(NamedTuple):
    """One recorded call: ``parent`` is the innermost open span on its thread."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float


def covered_length(intervals: Iterable[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.span_id: (span.end - span.start)
        - covered_length(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Sequence[Span]) -> dict[str, float]:
    """Total self time per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id]
    return dict(totals)


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median: a metric's run-to-run noise."""
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")
