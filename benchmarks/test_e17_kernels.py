"""E17 — compiled kernels for the three decision engines.

This PR compiles the hot paths: premise kernels for the Corollary 3.2
BFS (dict-lookup successors, deferred ChainLink allocation, shared
compilation), the linear-time [BB] counter closure for FDs, and a
delta-driven semi-naive chase.  The naive formulations live in
:mod:`repro.reference` (``decide_ind_naive``, ``attribute_closure_naive``,
``NaiveChaseEngine``), so the acceptance criteria are asserted against
real code in the same process:

* the single-decision microbenchmark must be >=3x faster than the
  naive BFS;
* chase-to-fixpoint must be >=2x faster than the naive rescan.
"""

import pytest

from floor_workloads import best_seconds, chase_workload, decision_workload
from repro.core.fdind_chase import ChaseEngine
from repro.core.ind_decision import decide_ind, index_by_lhs
from repro.core.ind_kernel import KernelIndex
from repro.reference import NaiveChaseEngine, decide_ind_naive


@pytest.mark.artifact("kernel-decision")
def test_single_decision_at_least_3x_faster_than_naive():
    """Acceptance criterion: the kernel BFS >=3x the naive BFS on the
    500-premise decision workload (prebuilt indexes on both sides)."""
    _schema, premises, target = decision_workload()
    kernels = KernelIndex(premises)
    naive_index = index_by_lhs(premises)

    fast = decide_ind(target, kernels)
    slow = decide_ind_naive(target, naive_index)
    assert fast.implied == slow.implied == False  # noqa: E712 - explicit
    assert fast.explored == slow.explored

    kernel_cost = best_seconds(lambda: decide_ind(target, kernels))
    naive_cost = best_seconds(
        lambda: decide_ind_naive(target, naive_index)
    )
    speedup = naive_cost / kernel_cost
    assert speedup >= 3.0, (
        f"kernel decision must be >=3x the naive BFS, got {speedup:.1f}x "
        f"({kernel_cost*1e6:.0f}us vs {naive_cost*1e6:.0f}us)"
    )


@pytest.mark.artifact("kernel-chase")
def test_chase_to_fixpoint_at_least_2x_faster_than_naive():
    """Acceptance criterion: semi-naive chase >=2x the naive rescan on
    the chain workload (equal rounds and equal final instance size)."""
    schema, deps, build_instance = chase_workload()
    semi = ChaseEngine(schema, deps)
    naive = NaiveChaseEngine(schema, deps)

    semi_outcome = semi.run(build_instance())
    naive_outcome = naive.run(build_instance())
    assert semi_outcome.reached_fixpoint and naive_outcome.reached_fixpoint
    assert semi_outcome.rounds == naive_outcome.rounds
    assert (semi_outcome.instance.total_tuples()
            == naive_outcome.instance.total_tuples())

    semi_cost = best_seconds(lambda: semi.run(build_instance()))
    naive_cost = best_seconds(lambda: naive.run(build_instance()))
    speedup = naive_cost / semi_cost
    assert speedup >= 2.0, (
        f"semi-naive chase must be >=2x the naive rescan, got {speedup:.1f}x "
        f"({semi_cost*1e3:.2f}ms vs {naive_cost*1e3:.2f}ms)"
    )


@pytest.mark.artifact("kernel-chase")
def test_noop_rounds_scan_deltas_not_rows():
    """The satellite fix for ``_apply_fd``'s per-round group rebuild,
    observed through the work counter: across a whole run the
    semi-naive engine examines each row version a constant number of
    times, while the naive engine rescans every row in every round."""
    schema, deps, build_instance = chase_workload()
    semi_outcome = ChaseEngine(schema, deps).run(build_instance())
    naive_outcome = NaiveChaseEngine(schema, deps).run(build_instance())
    assert semi_outcome.rows_scanned * 5 <= naive_outcome.rows_scanned, (
        f"semi-naive scanned {semi_outcome.rows_scanned} rows vs naive "
        f"{naive_outcome.rows_scanned}; the delta-driven engine must not "
        "rescan unchanged rows each round"
    )


@pytest.mark.artifact("kernel-decision")
def test_timed_single_decide(benchmark):
    """Timed artifact: the kernel decision path."""
    _schema, premises, target = decision_workload()
    kernels = KernelIndex(premises)
    result = benchmark(lambda: decide_ind(target, kernels))
    assert not result.implied


@pytest.mark.artifact("kernel-chase")
def test_timed_chase_fixpoint(benchmark):
    """Timed artifact: the semi-naive chase to fixpoint."""
    schema, deps, build_instance = chase_workload()
    engine = ChaseEngine(schema, deps)
    outcome = benchmark.pedantic(
        lambda inst: engine.run(inst),
        setup=lambda: ((build_instance(),), {}),
        rounds=10,
        warmup_rounds=1,
    )
    assert outcome.reached_fixpoint
