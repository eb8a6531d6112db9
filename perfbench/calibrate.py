"""Host-speed calibration: a fixed pure-Python loop timed during a run.

The benchmark runs on shared machines whose speed drifts by tens of
percent over minutes, which moves every wall-clock figure together.  A
run therefore times this loop, which the program cannot change, on each
processor it uses about every :data:`CHUNK_SECONDS` of measurement, and
scales each chunk's timings to a host that runs the loop in
:data:`REFERENCE_S`, using the samples on either side of the chunk.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from dataclasses import dataclass, field

REFERENCE_S = 0.005
"""Loop time of the reference host the gated timings are normalized to."""

SPINS = 5
"""Loop repetitions per processor per sample."""

CHUNK_SECONDS = 0.5
"""Measured phases take a calibration sample about this often."""


def _loop() -> int:
    table: dict[int, int] = {}
    for i in range(40_000):
        table[(i * 7919) % 10007] = i
    return sum(set(table))


class Calibration:
    """Loop-time samples taken through one run, in order."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.points: list[float] = []

    def sample(self) -> float:
        """Time the loop ``SPINS`` times on each processor; returns (and
        keeps) the geometric mean over processors of the median time."""
        home = os.sched_getaffinity(0)
        medians = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times = []
                for _ in range(SPINS):
                    start = time.perf_counter()
                    _loop()
                    times.append(time.perf_counter() - start)
                medians.append(statistics.median(times))
        finally:
            os.sched_setaffinity(0, home)
        point = math.exp(statistics.fmean(math.log(m) for m in medians))
        self.points.append(point)
        return point

    def loop_seconds(self) -> float:
        """Median loop time of the run."""
        return statistics.median(self.points)


@dataclass
class Timings:
    """Durations measured in chunks between calibration samples, kept
    raw and scaled to the reference host by the samples around them."""

    raw: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    raw_elapsed: float = 0.0
    scaled_elapsed: float = 0.0
    count: int = 0
    ends: list[int] = field(default_factory=list)
    """Where each chunk's durations end in ``raw`` and ``scaled``."""

    def add(self, durations: list[float], elapsed: float, count: int,
            before: float, after: float) -> None:
        """One chunk: its durations, its wall time and the operations it
        completed, between samples ``before`` and ``after``."""
        scale = REFERENCE_S / ((before + after) / 2)
        self.raw += durations
        self.scaled += [duration * scale for duration in durations]
        self.raw_elapsed += elapsed
        self.scaled_elapsed += elapsed * scale
        self.count += count
        self.ends.append(len(self.raw))
