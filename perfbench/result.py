"""What one run measured and found, before formatting."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any

from calibrate import Calibration, Timings
from ledger import chunk_percentile, percentile

TAIL_PERCENTILE = 90
"""The gated tail percentile.  p99 on a shared 2-core host moves with the
neighbours' load more than with the program; it is still reported."""

ENGINES = {
    "corollary-3.2": "engine.corollary_32_us",
    "fd-closure": "engine.fd_closure_us",
    "unary-unrestricted": "engine.unary_unrestricted_us",
    "finite-unary": "engine.finite_unary_us",
    "chase": "engine.chase_us",
}
"""``Answer.engine`` value -> per-layer metric."""


def engine_metrics(totals: dict[str, float],
                   per: int) -> dict[str, tuple[float, str]]:
    """Decide self time per engine, in microseconds per ``per`` units."""
    return {
        metric: (totals.get(f"session.decide:{engine}", 0.0) / per * 1e6,
                 "us")
        for engine, metric in ENGINES.items()
    }


def peak_rss_mb(pid: int) -> float:
    """High-water resident set of a process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fp:
        for line in fp:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for pid {pid}")


@dataclass
class Run:
    """``metrics`` feed the JSON result line and ``report`` the
    human-readable lines above it; ``problems`` are failed output
    checks."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    report: dict[str, tuple[Any, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def gate(self, calibration: Calibration, setup: Timings,
             work: Timings, peak_rss_mb: float,
             per_chunk: bool = False) -> None:
        """Record the end-to-end metrics from the set-up and work
        timings, scaled to the reference host; the raw figures go to the
        report.  With ``per_chunk`` the latency percentiles are medians
        over the work's chunks of each chunk's percentile, for runs of
        many short requests."""

        def rank(durations: list[float], p: float) -> float:
            if per_chunk:
                return chunk_percentile(durations, work.ends, p)
            return percentile(durations, p)

        def figures(setups: list[float], durations: list[float],
                    elapsed: float) -> dict[str, tuple[float, str]]:
            return {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (work.count / elapsed, "1/s"),
                "p50_us": (rank(durations, 50) * 1e6, "us"),
                "tail_us": (rank(durations, TAIL_PERCENTILE) * 1e6, "us"),
            }

        self.metrics.update(
            figures(setup.scaled, work.scaled, work.scaled_elapsed))
        self.metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        raw = figures(setup.raw, work.raw, work.raw_elapsed)
        self.report.update({f"raw_{name}": raw[name] for name in raw})
        self.report["peak_rss_mb"] = (peak_rss_mb, "MB")
        self.report["calibration_loop_s"] = (calibration.loop_seconds(), "s")
