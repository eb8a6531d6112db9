"""E19 — the dependency discovery subsystem.

This PR closes the data loop: mine the exact FDs/INDs a database
satisfies (stripped-partition lattice walk; inverted-index unary INDs
lifted apriori-style) and *reduce* the result with the reasoning
engine.  Acceptance criteria, asserted against real code in the same
process:

* implication-pruned n-ary IND discovery must validate **>=2x fewer**
  candidates against the data than the validate-everything baseline
  on the recorded workload — while accepting the identical dependency
  set (pruning changes how a candidate is accepted, never whether);
* ``repro discover`` on a generated Armstrong database for a random
  IND set Sigma must return a cover C with ``Sigma |= C`` and
  ``C |= Sigma`` (the Armstrong round-trip; also pinned on random
  schemas by ``tests/properties/test_property_discovery.py``).
"""

import random

import pytest

from floor_workloads import SEED, discovery_workload
from repro.core.armstrong_ind import armstrong_database
from repro.discovery import discover, discover_inds
from repro.discovery.report import PhaseCounters
from repro.engine import ReasoningSession
from repro.workloads.random_deps import random_inds, random_schema


@pytest.mark.artifact("discovery-pruning")
def test_pruning_validates_at_least_2x_fewer_candidates():
    """Acceptance criterion: on the recorded workload the pruned lift
    validates >=2x fewer n-ary candidates, same discovered set."""
    db = discovery_workload()
    pruned = PhaseCounters()
    baseline = PhaseCounters()
    found_pruned = discover_inds(
        db, counters=pruned, unary_counters=PhaseCounters(), prune=True
    )
    found_baseline = discover_inds(
        db, counters=baseline, unary_counters=PhaseCounters(), prune=False
    )
    assert set(found_pruned) == set(found_baseline)
    assert pruned.candidates_generated == baseline.candidates_generated
    assert baseline.pruned_by_implication == 0
    assert pruned.validated < baseline.validated
    assert baseline.validated >= 2 * pruned.validated, (
        f"implication pruning must save >=2x data validations, got "
        f"{baseline.validated} baseline vs {pruned.validated} pruned"
    )
    # Every skipped validation is accounted for by an implication hit.
    assert (
        pruned.validated + pruned.pruned_by_implication
        == baseline.validated
    )


@pytest.mark.artifact("discovery-pruning")
def test_pruned_rows_scanned_shrink_with_validations():
    """The point of pruning: rows touched shrink with validations."""
    db = discovery_workload()
    pruned = PhaseCounters()
    baseline = PhaseCounters()
    discover_inds(db, counters=pruned, unary_counters=PhaseCounters())
    discover_inds(
        db, counters=baseline, unary_counters=PhaseCounters(), prune=False
    )
    assert pruned.rows_scanned * 2 <= baseline.rows_scanned


@pytest.mark.artifact("discovery-armstrong")
def test_armstrong_round_trip_on_random_ind_sets():
    """Acceptance criterion: discovery on an Armstrong database for a
    random Sigma returns a cover equivalent to Sigma under implies."""
    rng = random.Random(SEED)
    for _round in range(5):
        schema = random_schema(rng, n_relations=3, min_arity=2, max_arity=3)
        sigma = random_inds(rng, schema, count=5, max_arity=2)
        db = armstrong_database(schema, sigma)
        report = discover(db, classes=("ind",), reduce=True)
        cover = report.cover
        forward = ReasoningSession(schema, sigma).implies_all(cover)
        backward = ReasoningSession(schema, cover).implies_all(sigma)
        assert all(answer.verdict for answer in forward), (
            f"Sigma must imply the discovered cover; Sigma={sigma}"
        )
        assert all(answer.verdict for answer in backward), (
            f"the discovered cover must imply Sigma; Sigma={sigma}"
        )


@pytest.mark.artifact("discovery-pruning")
def test_timed_discovery_mine(benchmark):
    """Timed artifact: one full pruned discovery run."""
    db = discovery_workload()
    result = benchmark(lambda: discover(db, reduce=False))
    assert result.fds and result.inds
