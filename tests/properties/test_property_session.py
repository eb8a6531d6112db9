"""Oracle equivalence for the session lifecycle's scoped invalidation.

The contract of ``add``/``retract`` is that incremental maintenance is
*unobservable*: after any interleaving of mutations, every question
must be answered exactly as a fresh :class:`ReasoningSession` built
from the final premise set would answer it.  Probes run after every
single mutation (and before the first), so any stale reachability
entry, closure memo, key memo, or unary-closure cache the scoped
invalidation failed to drop shows up as a verdict mismatch.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.deps.ind import IND
from repro.engine import PremiseIndex, ReasoningSession
from repro.exceptions import DependencyError, ReproError
from repro.model.schema import DatabaseSchema
from tests.properties.strategies import fds, inds

SCHEMA = DatabaseSchema.from_dict(
    {"R": ("A", "B"), "S": ("A", "B"), "T": ("A", "B")}
)

PROBES = (
    "R[A] <= S[A]",
    "R[A] <= T[A]",
    "S[B] <= R[B]",
    "R[A,B] <= S[A,B]",
    "R: A -> B",
    "S: B -> A",
)

BUDGETS = dict(max_nodes=50_000, max_rounds=30, max_tuples=5_000)


def observe(session: ReasoningSession) -> list:
    """Every observable the session exposes, as comparable values.

    Questions outside a decidable fragment (finite implication of a
    non-unary mixed set) or over the chase budget raise; the exception
    *type* is part of the observable behaviour and must match too.
    """
    observations: list = []
    for target in PROBES:
        for semantics in ("unrestricted", "finite"):
            try:
                observations.append(
                    session.implies(target, semantics=semantics).verdict
                )
            except ReproError as exc:
                observations.append(type(exc).__name__)
    for relation in ("R", "S", "T"):
        observations.append(sorted(session.keys(relation)[relation], key=sorted))
        observations.append(sorted(session.closure(relation, ["A"])))
    return observations


@st.composite
def mutation_scripts(draw):
    """A random interleaving of adds and retracts.

    Retracts name a position into the premises *current at execution
    time* (modulo its length), so every generated script is valid by
    construction and shrinks well.
    """
    length = draw(st.integers(1, 5))
    script = []
    for _ in range(length):
        if draw(st.booleans()):
            script.append(("add", draw(st.one_of(inds(SCHEMA), fds(SCHEMA)))))
        else:
            script.append(("retract", draw(st.integers(0, 63))))
    return script


class TestLifecycleOracleEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(mutation_scripts())
    def test_incremental_session_equals_rebuilt_session(self, script):
        session = ReasoningSession(SCHEMA, [], **BUDGETS)
        premises: list = []
        observe(session)  # warm the caches before the first mutation
        for kind, payload in script:
            if kind == "add":
                session.add(payload)
                premises.append(payload)
            else:
                if not premises:
                    continue
                victim = premises[payload % len(premises)]
                session.retract(victim)
                premises.remove(victim)
            oracle = ReasoningSession(SCHEMA, list(premises), **BUDGETS)
            assert observe(session) == observe(oracle)
            assert session.dependencies == oracle.dependencies

    @settings(max_examples=15, deadline=None)
    @given(mutation_scripts(), mutation_scripts())
    def test_forked_sessions_diverge_like_independent_sessions(
        self, parent_script, child_script
    ):
        """A fork evolved independently matches a from-scratch session."""
        session = ReasoningSession(SCHEMA, [], **BUDGETS)
        premises: list = []
        for kind, payload in parent_script:
            if kind == "add":
                session.add(payload)
                premises.append(payload)
            elif premises:
                victim = premises[payload % len(premises)]
                session.retract(victim)
                premises.remove(victim)
        observe(session)
        child = session.fork()
        child_premises = list(premises)
        for kind, payload in child_script:
            if kind == "add":
                child.add(payload)
                child_premises.append(payload)
            elif child_premises:
                victim = child_premises[payload % len(child_premises)]
                child.retract(victim)
                child_premises.remove(victim)
        parent_oracle = ReasoningSession(SCHEMA, list(premises), **BUDGETS)
        child_oracle = ReasoningSession(SCHEMA, list(child_premises), **BUDGETS)
        assert observe(child) == observe(child_oracle)
        assert observe(session) == observe(parent_oracle)


def buckets(index: PremiseIndex) -> list:
    """Every bucket of the index, rendered, in bucket order."""
    def rendered(mapping):
        return {key: [str(dep) for dep in bucket]
                for key, bucket in mapping.items()}

    kernels = index.ind_kernels
    return [
        [str(dep) for dep in index.dependencies],
        rendered(index.inds_by_lhs),
        rendered(index.inds_by_rhs),
        rendered(index.fds_by_relation),
        rendered(kernels.premises),
        {key: [str(kernel.ind) for kernel in bucket]
         for key, bucket in kernels.buckets.items()},
        [str(dep) for dep in index.inds + index.fds],
        index.all_unary,
        index.premise_hash,
        {key: value for key, value in index.stats().items()
         if key in ("inds", "fds", "relations_with_outgoing_inds")},
    ]


def _equal_copy(dep):
    """An equal premise, rendered differently when the IND's left side
    is unsorted (so bucket order shows which occurrence was taken)."""
    return dep.canonical() if isinstance(dep, IND) else dep


@st.composite
def retract_batches(draw):
    """Premises with duplicates, and a batch naming some of them,
    possibly more often than they occur."""
    premises = draw(st.lists(st.one_of(inds(SCHEMA), fds(SCHEMA)),
                             max_size=10))
    if not premises:
        return premises, []
    premises += [
        _equal_copy(dep)
        for dep in draw(st.lists(st.sampled_from(premises), max_size=3))
    ]
    batch = draw(st.lists(st.sampled_from(premises), max_size=len(premises)))
    return premises, batch


@settings(max_examples=80, deadline=None, derandomize=True)
@given(retract_batches())
def test_batch_retract_equals_a_fresh_index_over_the_survivors(case):
    """One batched retract leaves every bucket (premise lists, kernel
    buckets, class views) exactly as a fresh index over the surviving
    premises builds them, in the same order; a batch naming a premise
    more often than it occurs raises and changes nothing."""
    premises, batch = case
    index = PremiseIndex(SCHEMA, premises)
    if Counter(batch) - Counter(premises):
        with pytest.raises(DependencyError, match="not among the premises"):
            index.retract(batch)
        assert buckets(index) == buckets(PremiseIndex(SCHEMA, premises))
        return
    index.retract(batch)
    survivors = list(premises)
    for dep in batch:
        survivors.remove(dep)
    assert [str(dep) for dep in index.dependencies] == [
        str(dep) for dep in survivors
    ]
    assert buckets(index) == buckets(PremiseIndex(SCHEMA, survivors))
