"""Differential properties for the SCC-condensed reach index.

On random schemas and random add/retract interleavings, the
session-managed :class:`~repro.core.reach_index.ReachIndex` must agree
with both oracles — the naive textbook BFS
(:func:`repro.reference.decide_ind_naive`) and the PR-3 kernel BFS
(``decide_ind`` over a fresh :class:`~repro.core.ind_kernel.KernelIndex`)
— on verdicts *and*
witness chains, under both implication semantics (which coincide on
pure-IND sets, Theorem 3.1), and every chain must pass the independent
:func:`chain_is_valid` checker.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.ind_decision import chain_is_valid, decide_ind
from repro.core.ind_kernel import KernelIndex
from repro.engine import ReasoningSession
from repro.reference import decide_ind_naive

from tests.properties.strategies import inds, schemas

COMMON = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)

MAX_NODES = 50_000


@COMMON
@given(schemas(), st.data())
def test_reach_index_matches_both_oracles_under_mutation(schema, data):
    """Interleave adds/retracts with queries; after every step the
    index, the naive BFS, and the kernel BFS agree exactly."""
    session = ReasoningSession(schema, max_nodes=MAX_NODES)
    live: list = []

    for _ in range(data.draw(st.integers(1, 6))):
        if live and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(live))
            live.remove(victim)  # first occurrence, like the session
            session.retract(victim)
        else:
            fresh = [
                data.draw(inds(schema))
                for _ in range(data.draw(st.integers(1, 3)))
            ]
            live.extend(fresh)
            session.add(fresh)

        for _ in range(data.draw(st.integers(1, 3))):
            target = data.draw(inds(schema))
            answer = session.implies(target)
            finite = session.implies(target, semantics="finite")
            naive = decide_ind_naive(target, list(live), max_nodes=MAX_NODES)
            kernel = decide_ind(
                target, KernelIndex(live), max_nodes=MAX_NODES
            )
            assert (
                answer.verdict
                == finite.verdict
                == naive.implied
                == kernel.implied
            )
            if answer.verdict:
                certificate = answer.certificate
                assert certificate.chain == kernel.chain == naive.chain
                assert certificate.links == kernel.links == naive.links
                assert chain_is_valid(
                    target, certificate.chain, certificate.links
                )


@COMMON
@given(schemas(), st.data())
def test_forked_sessions_stay_consistent_with_their_own_premises(schema, data):
    """Fork mid-stream, diverge both sides, and check each session's
    index against a fresh kernel BFS over its own premise list."""
    base = [data.draw(inds(schema)) for _ in range(data.draw(st.integers(0, 4)))]
    session = ReasoningSession(schema, base, max_nodes=MAX_NODES)
    session.implies(data.draw(inds(schema)))  # warm the parent index

    child = session.fork()
    child_extra = data.draw(inds(schema))
    child.add(child_extra)
    parent_extra = data.draw(inds(schema))
    session.add(parent_extra)

    target = data.draw(inds(schema))
    parent_oracle = decide_ind(
        target, KernelIndex(base + [parent_extra]), max_nodes=MAX_NODES
    )
    child_oracle = decide_ind(
        target, KernelIndex(base + [child_extra]), max_nodes=MAX_NODES
    )
    assert session.implies(target).verdict == parent_oracle.implied
    assert child.implies(target).verdict == child_oracle.implied
