"""The benchmark's own arithmetic: percentiles, span self times, the
per-request ledger and failure counting.

Kept free of I/O and of ``repro`` imports so the tests in
``test_perfbench_math.py`` pin it in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

LEDGER_TOLERANCE = 0.05
"""A served request's layer self times plus its wire time must match the
client-observed time within this share of it."""

LEDGER_MIN_WITHIN = 0.99
"""Share of traced requests that must meet :data:`LEDGER_TOLERANCE`."""


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``p``
    percent of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile rank must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def chunk_percentile(values: Sequence[float], ends: Sequence[int],
                     p: float) -> float:
    """Median over chunks of each chunk's nearest-rank percentile.

    ``values[ends[i-1]:ends[i]]`` is chunk ``i`` (the first starts at
    0); empty chunks are skipped.  A stall that covers less than half
    of the chunks does not move the result.
    """
    per_chunk = []
    start = 0
    for end in ends:
        if end > start:
            per_chunk.append(percentile(values[start:end], p))
        start = end
    if not per_chunk:
        raise ValueError("chunk_percentile of an empty sample")
    return statistics.median(per_chunk)


Span = tuple[str, float, float]
"""``(name, start, end)`` on one monotonic clock."""


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Self time per span name: each span's duration minus the part of
    its interval that its children cover.

    The parent of a span is the innermost earlier-starting span that
    contains it.  A span that partly overlaps a sibling is counted in
    full, so double counting shows as a sum larger than the whole.
    """
    ordered = sorted(spans, key=lambda span: (span[1], -span[2]))
    children: list[list[tuple[float, float]]] = [[] for _ in ordered]
    stack: list[int] = []
    for index, (_name, start, end) in enumerate(ordered):
        while stack and not (
            ordered[stack[-1]][1] <= start and end <= ordered[stack[-1]][2]
        ):
            stack.pop()
        if stack:
            children[stack[-1]].append((start, end))
        stack.append(index)
    totals: dict[str, float] = {}
    for (name, start, end), kids in zip(ordered, children):
        totals[name] = totals.get(name, 0.0) + (end - start) - _covered(kids)
    return totals


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def ledger_error(
    layers: dict[str, float], wire: float, observed: float
) -> float:
    """Relative mismatch between layers-plus-wire and the observed time."""
    if observed <= 0:
        raise ValueError(f"observed time must be positive, got {observed}")
    return abs(sum(layers.values()) + wire - observed) / observed


def failures(statuses: Sequence[Optional[int]], degraded: int = 0) -> int:
    """Failed attempts.

    ``statuses`` holds one HTTP status per attempt, ``None`` for a
    transport error; any non-2xx status or ``None`` fails.  ``degraded``
    counts 2xx answers that came back ``unknown`` (deadline or budget
    overrun), which fail too.
    """
    refused = sum(
        1 for status in statuses if status is None or not 200 <= status < 300
    )
    return refused + degraded


def failed_frac(statuses: Sequence[Optional[int]], degraded: int = 0) -> float:
    """Failures over attempts (see :func:`failures`)."""
    if not statuses:
        raise ValueError("failed_frac of zero attempts")
    return failures(statuses, degraded) / len(statuses)
