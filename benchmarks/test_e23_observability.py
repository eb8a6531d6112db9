"""E23 — observability: tracing/metrics overhead stays inside budget.

This PR threads a stdlib-only metrics + tracing layer
(:mod:`repro.obs`) through every serving layer: per-request traces
with payer-attributed coalescer spans, WAL fsync and per-follower
ship spans, latency/batch-size histograms, and scrape-time collectors
over the engines' ``stats()`` counters.  Observability that taxes the
hot path gets turned off in production, so the acceptance criterion
is a *cost* bound, not a speedup floor:

* the per-request cost of full instrumentation (trace minted, spans
  attributed, histograms observed, trace ring appended) — measured as
  the difference between the traced and bare coalesced streams — must
  stay under :data:`floor_workloads.OBS_OVERHEAD_BUDGET` (5%) of what
  one served HTTP request costs;
* the frozen ``BENCH_trajectory.json`` history's last entry records
  the ``observability_overhead`` workload.
"""

import json
import os

import pytest

from floor_workloads import OBS_OVERHEAD_BUDGET, observability_overhead

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED_TRAJECTORY = os.path.join(REPO_ROOT, "BENCH_trajectory.json")


@pytest.mark.artifact("observability-overhead")
def test_full_instrumentation_stays_under_the_overhead_budget():
    """Acceptance criterion, measured live: tracing+metrics add less
    than the budgeted fraction of a served request."""
    meta = observability_overhead(repeats=2)
    assert meta["overhead_budget"] == OBS_OVERHEAD_BUDGET == 0.05
    assert meta["overhead_fraction"] < OBS_OVERHEAD_BUDGET, (
        f"instrumentation adds {meta['added_us_per_request']:.2f}us per "
        f"request = {meta['overhead_fraction']:.1%} of a "
        f"{meta['served_request_us']:.0f}us served request"
    )
    # The instrumented stream really was instrumented: one latency
    # observation per request, at least one batch flush observed, and
    # every trace recorded into the ring.
    per_phase = meta["clients"] * meta["reads_per_client"]
    assert meta["latency_observations"] >= per_phase
    assert meta["batches_observed"] >= 1
    assert meta["traces_recorded"] >= per_phase


@pytest.mark.artifact("observability-report")
def test_trajectory_ends_with_the_observability_suite():
    """The frozen perf history's newest entry is this suite's run."""
    with open(COMMITTED_TRAJECTORY, encoding="utf-8") as fp:
        trajectory = json.load(fp)
    assert isinstance(trajectory, list) and trajectory
    last = trajectory[-1]
    assert last["suite"] == "e23-observability"
    assert "observability_overhead" in last["workloads"]