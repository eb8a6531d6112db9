"""E21 — crash-safe serving: WAL + snapshot recovery and deadlines.

This PR makes the serving layer durable: every acknowledged mutation
is fsync'd to a per-tenant write-ahead log before the server replies,
periodic snapshots bound the replay tail, and ``repro serve
--state-dir`` reboots into verdict-equivalent state.  Requests carry
cooperative deadlines that degrade to ``unknown`` answers instead of
erroring.  Acceptance criteria, asserted against real code in the
same process:

* snapshot-plus-tail recovery must **beat full mutation-history
  replay** — boot cost proportional to ``snapshot_every``, not to the
  length of the history;
* a reopened state dir must reproduce the exact pre-crash state:
  equal ``premise_hash``, equal probe verdicts, and a keyed retry of
  an already-applied mutation must replay **exactly once** (recorded
  result, no second version bump).
"""

import shutil
import tempfile

import pytest

from floor_workloads import cold_start_recovery, serving_workload
from repro.serve import StateDir, TenantRegistry


@pytest.fixture
def state_root():
    root = tempfile.mkdtemp(prefix="repro-e21-")
    yield root
    shutil.rmtree(root, ignore_errors=True)


@pytest.mark.artifact("durability-recovery")
def test_cold_boot_beats_full_rebuild():
    """Acceptance criterion: recovery from snapshot+tail, measured
    live against replaying the entire mutation history."""
    meta = cold_start_recovery(repeats=3)
    assert meta["speedup_vs_full_rebuild"] >= 2.0, (
        f"snapshot+tail boot must beat full rebuild, got "
        f"{meta['speedup_vs_full_rebuild']:.2f}x "
        f"(recover {meta['recover_seconds']*1e3:.2f}ms vs rebuild "
        f"{meta['rebuild_seconds']*1e3:.2f}ms)"
    )
    # The mechanism, not just the clock: the tail is bounded by the
    # snapshot cadence while the history is much longer.
    assert meta["tail_records_replayed"] <= meta["snapshot_every"]
    assert meta["mutations"] > 10 * meta["snapshot_every"]


@pytest.mark.artifact("durability-recovery")
def test_recovered_state_is_verdict_equivalent(state_root):
    """An unclean close (no graceful checkpoint) must reboot into a
    state with the same premise hash and the same probe verdicts."""
    schema, premises, pool = serving_workload()
    registry = TenantRegistry(state_dir=StateDir(state_root))
    tenant = registry.create("app", schema, premises)
    tenant.mutate("retract", [str(premises[0])])
    tenant.mutate("add", [str(premises[0])])
    expected_hash = tenant.session.premise_hash
    expected = [a.verdict for a in tenant.session.implies_all(pool)]
    registry.close()  # crash-like: file handles only, no checkpoint

    rebooted = TenantRegistry(state_dir=StateDir(state_root))
    try:
        assert rebooted.recovered_tenants == 1
        assert rebooted.replayed_records == 2
        session = rebooted.get("app").session
        assert session.premise_hash == expected_hash
        assert [a.verdict for a in session.implies_all(pool)] == expected
    finally:
        rebooted.close()


@pytest.mark.artifact("durability-recovery")
def test_keyed_retry_replays_exactly_once_across_reboot(state_root):
    """A retried mutation key must return the recorded result after a
    reboot instead of applying the patch a second time."""
    schema, premises, _pool = serving_workload()
    registry = TenantRegistry(state_dir=StateDir(state_root))
    tenant = registry.create("app", schema, premises)
    first = tenant.mutate("retract", [str(premises[0])], key="req-1")
    registry.close()

    rebooted = TenantRegistry(state_dir=StateDir(state_root))
    try:
        tenant = rebooted.get("app")
        replay = tenant.mutate("retract", [str(premises[0])], key="req-1")
        assert replay["idempotent_replay"] is True
        assert replay["seq"] == first["seq"]
        assert tenant.session.version == first["version"]
        assert tenant.replayed_mutations == 1
    finally:
        rebooted.close()


@pytest.mark.artifact("durability-recovery")
def test_timed_cold_boot(benchmark, state_root):
    """Timed artifact: one snapshot+tail boot of a durable tenant."""
    schema, premises, pool = serving_workload()
    registry = TenantRegistry(state_dir=StateDir(state_root))
    tenant = registry.create("app", schema, premises)
    for dep in premises[:8]:
        tenant.mutate("retract", [str(dep)])
        tenant.mutate("add", [str(dep)])
    registry.checkpoint_all()
    tenant.mutate("retract", [str(premises[0])])
    tenant.mutate("add", [str(premises[0])])
    registry.close()

    def boot():
        reg = TenantRegistry(state_dir=StateDir(state_root))
        reg.get("app").session.implies_all(pool)
        reg.close()

    benchmark(boot)
