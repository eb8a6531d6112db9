"""E22 — replicated serving: read scale-out and automatic failover.

This PR gives the serving layer replication: followers bootstrap from
the primary's snapshot, apply its WAL stream record-by-record, serve
lag-bounded reads, and promote themselves behind a ``term`` fence when
the primary dies.  Acceptance criteria, asserted against real servers
in the same process:

* aggregate read throughput with **two followers** must be at least
  **2x** the single-node ceiling, measured with the ``latency:hold``
  fault emulating per-request service time on every node (so the
  number reflects the architecture, not this machine's core count);
* a :class:`~repro.serve.client.FailoverClient` mutation issued the
  moment the primary vanishes must be acknowledged by a promoted
  follower within the heartbeat budget, and the measured
  ``failover_ms`` is recorded;
* the frozen ``BENCH_trajectory.json`` history's last entry records
  the ``replicated_serving`` workload.
"""

import json
import os

import pytest

from floor_workloads import replicated_serving

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMITTED_TRAJECTORY = os.path.join(REPO_ROOT, "BENCH_trajectory.json")


@pytest.mark.artifact("replication-scaleout")
def test_two_followers_at_least_double_read_throughput():
    """Acceptance criterion: follower read scale-out and failover,
    measured live against real HTTP servers."""
    meta = replicated_serving(repeats=1)
    assert meta["followers"] == 2
    assert meta["read_speedup"] >= 2.0, (
        f"2 followers must at least double aggregate read throughput, "
        f"got {meta['read_speedup']:.2f}x (single "
        f"{meta['single_node_seconds']*1e3:.0f}ms vs fleet "
        f"{meta['fleet_seconds']*1e3:.0f}ms)"
    )
    # The failover phase promoted the follower (term advanced past the
    # primary's 0) and the first post-death mutation was acknowledged
    # within the heartbeat budget, with real margin for detection,
    # promotion, and client re-resolution.
    assert meta["promoted_term"] == 1
    assert 0 < meta["failover_ms"] < 10_000


@pytest.mark.artifact("replication-report")
def test_trajectory_still_records_the_replication_workload():
    """The frozen perf history's newest entry carries the
    replicated-serving numbers."""
    with open(COMMITTED_TRAJECTORY, encoding="utf-8") as fp:
        trajectory = json.load(fp)
    assert isinstance(trajectory, list) and trajectory
    last = trajectory[-1]
    assert "replicated_serving" in last["workloads"]
    assert last["workloads"]["replicated_serving"]["meta"]["read_speedup"] > 1
