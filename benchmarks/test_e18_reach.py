"""E18 — the SCC-condensed bitset closure index for IND implication.

This PR amortizes reachability across queries: a session's premise
index owns a compiled :class:`~repro.core.reach_index.ReachIndex`
(Tarjan condensation + per-component reachable-set bitsets), so a
``decide_ind`` for an already-compiled source is a bitset membership
test instead of a fresh BFS.  Acceptance criteria, asserted against
real code in the same process:

* ``repeated_decide_hot`` (10k mixed hit/miss ``implies`` calls on one
  500-premise session) must be >=5x faster than the PR-3 kernel BFS
  over the identical query stream — the in-process ratio is its own
  calibration (both sides share one interpreter and one machine, so
  machine speed divides out);
* verdicts and witness chains stay identical to both retained oracles
  after arbitrary add/retract sequences (also pinned on random
  schemas by ``tests/properties/test_property_reach.py``).
"""

import pytest

from floor_workloads import best_seconds, serving_workload
from repro.core.ind_decision import chain_is_valid, decide_ind
from repro.core.ind_kernel import KernelIndex
from repro.deps.ind import IND
from repro.engine import ReasoningSession
from repro.reference import decide_ind_naive


@pytest.mark.artifact("reach-serving")
def test_repeated_decide_hot_at_least_5x_faster_than_kernel_bfs():
    """Acceptance criterion: the hot serving loop >=5x the PR-3 kernel
    BFS on a 500-premise session (identical queries, both warm)."""
    schema, premises, pool = serving_workload()
    session = ReasoningSession(schema, premises)
    calls = 2_000  # enough to swamp timer noise, cheap enough for CI
    queries = [pool[i % len(pool)] for i in range(calls)]
    session.implies_all(pool)  # both sides warm: index compiled...
    kernels = session.index.ind_kernels
    for target in pool:
        decide_ind(target, kernels)  # ...and kernel edge memos hot

    def hot():
        implies = session.implies
        for target in queries:
            implies(target)

    def bfs():
        for target in queries:
            decide_ind(target, kernels)

    hot_cost = best_seconds(hot, repeats=3)
    bfs_cost = best_seconds(bfs, repeats=3)
    speedup = bfs_cost / hot_cost
    assert speedup >= 5.0, (
        f"indexed serving must be >=5x the kernel BFS, got {speedup:.1f}x "
        f"({hot_cost/calls*1e6:.1f}us vs {bfs_cost/calls*1e6:.1f}us per call)"
    )


@pytest.mark.artifact("reach-serving")
def test_verdicts_and_chains_survive_add_retract_sequences():
    """Acceptance criterion: after an arbitrary add/retract sequence
    the index agrees with both oracles, chain for chain."""
    schema, premises, pool = serving_workload()
    session = ReasoningSession(schema, premises)
    live = list(premises)
    extra = [
        IND("R99", ("A", "B"), "QUIET", ("A", "B")),
        IND("QUIET", ("A",), "R0", ("A",)),
        IND("R50", ("C",), "R0", ("C",)),
    ]
    script = [
        ("add", extra[0]),
        ("add", extra[1]),
        ("retract", premises[10]),
        ("retract", extra[0]),
        ("add", extra[2]),
        ("retract", premises[0]),
    ]
    for op, dep in script:
        if op == "add":
            session.add(dep)
            live.append(dep)
        else:
            session.retract(dep)
            live.remove(dep)
        for target in pool:
            answer = session.implies(target)
            naive = decide_ind_naive(target, list(live))
            kernel = decide_ind(target, KernelIndex(live))
            assert answer.verdict == naive.implied == kernel.implied, (
                f"verdict drift on {target} after {op} {dep}"
            )
            if answer.verdict:
                certificate = answer.certificate
                assert certificate.chain == kernel.chain == naive.chain
                assert chain_is_valid(
                    target, certificate.chain, certificate.links
                )


@pytest.mark.artifact("reach-serving")
def test_hot_stream_compiles_at_most_once_per_component():
    """The amortization claim itself: 10k calls, zero recompiles after
    the warmup, every post-warmup answer a cache hit."""
    schema, premises, pool = serving_workload()
    session = ReasoningSession(schema, premises)
    session.implies_all(pool)
    compiles = session.index.reach_index.compiles
    hits_before = session.cache_hits
    for i in range(1_000):
        session.implies(pool[i % len(pool)])
    assert session.index.reach_index.compiles == compiles
    assert session.cache_hits == hits_before + 1_000


@pytest.mark.artifact("reach-serving")
def test_timed_repeated_decide_hot(benchmark):
    """Timed artifact: one hot indexed decision (mixed pool)."""
    schema, premises, pool = serving_workload()
    session = ReasoningSession(schema, premises)
    session.implies_all(pool)
    cycle = iter(range(10**9))

    def one_call():
        return session.implies(pool[next(cycle) % len(pool)])

    benchmark(one_call)
    assert session.index.reach_index.compiles == 2
