"""Soundness / completeness / round-trip properties for discovery.

Three invariants pin the subsystem:

* **soundness** — every dependency a report lists holds in the
  profiled database (checked by the independent ``satisfies``);
* **completeness** (small schemas, brute-force oracle) — every FD/IND
  the database satisfies is implied by the discovered set;
* **Armstrong round-trip** — discovering on an Armstrong database for
  ``Sigma`` yields a cover equivalent to ``Sigma`` under ``implies``
  (the acceptance criterion of E19), for FD sets via
  ``armstrong_relation`` and IND sets via ``armstrong_database``.

The reduction itself is pinned by a differential oracle: the
retract -> implies -> add-back loop over a live session, kept here as
test-only code, must produce the identical cover (and the identical
session) that :func:`~repro.discovery.pipeline.minimal_cover` does.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.armstrong_fd import armstrong_relation
from repro.core.armstrong_ind import armstrong_database
from repro.core.fd_closure import equivalent_fd_sets, fd_implies
from repro.core.ind_prover import implies_ind
from repro.deps.enumeration import all_fds, all_inds
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.discovery import discover, discover_fds, discover_inds, minimal_cover
from repro.discovery.pipeline import _exact_engines_cover, _reduction_order
from repro.engine import ReasoningSession
from repro.exceptions import ChaseBudgetExceeded, SearchBudgetExceeded
from repro.model.database import Database
from repro.model.schema import DatabaseSchema

from tests.properties.strategies import databases, fds, inds, schemas

COMMON = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)


@COMMON
@given(schemas(max_arity=3), st.data())
def test_discovery_is_sound(schema, data):
    """Every reported dependency holds in the database it came from."""
    db = data.draw(databases(schema))
    report = discover(db, reduce=False)
    for dep in report.dependencies:
        assert db.satisfies(dep), f"{dep} reported but violated"


@COMMON
@given(schemas(max_relations=2, max_arity=3), st.data())
def test_fd_discovery_is_complete(schema, data):
    """Brute-force oracle: every satisfied FD is implied by the mined
    minimal FDs."""
    db = data.draw(databases(schema, max_tuples=4, domain=3))
    found = discover_fds(db)
    for rel in schema:
        for candidate in all_fds(rel, include_trivial=False):
            if db.satisfies(candidate):
                assert fd_implies(found, candidate), (
                    f"{candidate} holds but is not implied by {found}"
                )


@COMMON
@given(schemas(max_relations=2, max_arity=3), st.data())
def test_ind_discovery_is_complete(schema, data):
    """Brute-force oracle: every satisfied IND is implied (in fact
    listed, up to canonical form) by the mined set."""
    db = data.draw(databases(schema, max_tuples=3, domain=3))
    found = set(discover_inds(db))
    satisfied = {ind for ind in all_inds(schema) if db.satisfies(ind)}
    assert found == satisfied


@COMMON
@given(schemas(max_relations=2, max_arity=3), st.data())
def test_pruned_and_baseline_discover_the_same_inds(schema, data):
    """Implication pruning changes the cost, never the answer."""
    db = data.draw(databases(schema, max_tuples=4, domain=3))
    assert set(discover_inds(db, prune=True)) == set(
        discover_inds(db, prune=False)
    )


@COMMON
@given(schemas(max_relations=1, min_arity=2, max_arity=4), st.data())
def test_armstrong_fd_round_trip(schema, data):
    """discover(armstrong_relation(Sigma)) is equivalent to Sigma."""
    rel_schema = next(iter(schema))
    sigma = [
        data.draw(fds(schema))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    sigma = [fd for fd in sigma if not fd.is_trivial()]
    relation = armstrong_relation(rel_schema, sigma)
    db = Database(DatabaseSchema.of(rel_schema), {rel_schema.name: relation})
    found = discover_fds(db)
    assert equivalent_fd_sets(found, sigma)


@COMMON
@given(schemas(max_relations=3, min_arity=1, max_arity=3), st.data())
def test_armstrong_ind_round_trip_via_session(schema, data):
    """The E19 acceptance property: discovery on an Armstrong database
    for Sigma returns a cover C with Sigma |= C and C |= Sigma,
    checked through ``ReasoningSession.implies_all``."""
    sigma = [
        data.draw(inds(schema))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    sigma = [ind for ind in sigma if not ind.is_trivial()]
    db = armstrong_database(schema, sigma)
    cover = discover(db, classes=("ind",), reduce=True).cover
    assert all(
        answer.verdict
        for answer in ReasoningSession(schema, sigma).implies_all(cover)
    ), f"Sigma must imply the cover; Sigma={sigma} cover={cover}"
    assert all(
        answer.verdict
        for answer in ReasoningSession(schema, cover).implies_all(sigma)
    ), f"the cover must imply Sigma; Sigma={sigma} cover={cover}"


@COMMON
@given(schemas(max_relations=2, max_arity=3), st.data())
def test_minimal_cover_preserves_the_theory(schema, data):
    """Reduction never loses information: the cover implies every
    discovered dependency, under every strategy."""
    db = data.draw(databases(schema, max_tuples=3, domain=3))
    full = discover(db, reduce=False).dependencies
    report = discover(db, reduce=True)
    cover_fds = [dep for dep in report.cover if isinstance(dep, FD)]
    cover_inds = [dep for dep in report.cover if not isinstance(dep, FD)]
    session = ReasoningSession(schema, report.cover)
    for dep in full:
        # Class-subset implication first (cheap, covers the class-local
        # strategy); the whole-cover session settles anything a "full"
        # reduction dropped with cross-class reasoning.
        if isinstance(dep, FD):
            implied = fd_implies(cover_fds, dep)
        else:
            implied = implies_ind(cover_inds, dep)
        assert implied or session.implies(dep).verdict, dep


# -- the differential oracle for minimal_cover --------------------------------


def _oracle_implied_without(session, dep) -> bool:
    session.retract(dep)
    try:
        implied = session.implies(dep).verdict
    except (ChaseBudgetExceeded, SearchBudgetExceeded):
        implied = False
    if not implied:
        session.add(dep)
    return implied


def _oracle_reduce_class(schema, dependencies: list) -> list:
    if len(dependencies) < 2:
        return list(dependencies)
    scratch = ReasoningSession(schema, dependencies)
    for dep in _reduction_order(dependencies):
        _oracle_implied_without(scratch, dep)
    return list(scratch.dependencies)


def oracle_cover(session, strategy: str) -> list:
    """Greedy reduction through the session lifecycle: every question
    retracts the dependency, asks, and adds it back unless implied."""
    if strategy == "auto":
        strategy = "full" if _exact_engines_cover(session) else "class-local"
    if strategy == "full":
        for dep in _reduction_order(session.dependencies):
            _oracle_implied_without(session, dep)
        return list(session.dependencies)
    fds = [dep for dep in session.dependencies if isinstance(dep, FD)]
    inds = [dep for dep in session.dependencies if isinstance(dep, IND)]
    keep_fd = _oracle_reduce_class(session.schema, fds)
    keep_ind = _oracle_reduce_class(session.schema, inds)
    dropped = (set(fds) - set(keep_fd)) | (set(inds) - set(keep_ind))
    doomed = [dep for dep in session.dependencies if dep in dropped]
    if doomed:
        session.retract(doomed)
    return list(session.dependencies)


STRATEGIES = ("auto", "full", "class-local")
BUDGETS = dict(max_nodes=50_000, max_rounds=30, max_tuples=5_000)


def assert_cover_matches_oracle(schema, premises, strategies=STRATEGIES):
    """``minimal_cover`` and the oracle return the same list, in the
    same order, and leave the session with the same premises."""
    for strategy in strategies:
        fast = ReasoningSession(schema, premises, **BUDGETS)
        slow = ReasoningSession(schema, premises, **BUDGETS)
        expected = [str(dep) for dep in oracle_cover(slow, strategy)]
        got = [str(dep) for dep in minimal_cover(fast, strategy)]
        assert got == expected, strategy
        assert [str(dep) for dep in fast.dependencies] == expected, strategy


@COMMON
@given(schemas(max_relations=2, max_arity=3), st.data())
def test_minimal_cover_matches_the_lifecycle_oracle(schema, data):
    """Every strategy returns the oracle's cover on mined premises:
    each class alone, and both together.  Forced ``full`` is left out
    on the mixed set only: there it runs the chase once per premise
    through the same lifecycle loop as the oracle."""
    db = data.draw(databases(schema, max_tuples=3, domain=3))
    for classes in (("ind",), ("fd",)):
        mined = discover(db, classes=classes, reduce=False).dependencies
        assert_cover_matches_oracle(schema, mined)
    assert_cover_matches_oracle(
        schema, discover(db, reduce=False).dependencies,
        strategies=("auto", "class-local"),
    )


@COMMON
@given(schemas(max_relations=3, max_arity=3), st.data())
def test_minimal_cover_matches_the_oracle_on_drawn_premises(schema, data):
    """Hand-drawn premise sets: pure classes, mixtures and duplicates
    (a premise may be drawn twice), none of them mined."""
    kinds = data.draw(st.sampled_from(("ind", "fd", "both")))
    premises = []
    for _ in range(data.draw(st.integers(0, 6))):
        kind = kinds if kinds != "both" else data.draw(
            st.sampled_from(("ind", "fd"))
        )
        premises.append(data.draw(inds(schema) if kind == "ind" else fds(schema)))
    if premises and data.draw(st.booleans()):
        premises.append(data.draw(st.sampled_from(premises)))
    assert_cover_matches_oracle(schema, premises)


_SCHEMA = DatabaseSchema.from_dict(
    {"R": ("A", "B", "C"), "S": ("A", "B", "C"), "T": ("A", "B")}
)


@pytest.mark.parametrize(
    "premises",
    [
        pytest.param([
            "R[A,B] <= S[A,B]", "R[A] <= S[A]", "S[A,B] <= T[A,B]",
            "R[A,B] <= T[A,B]", "T[B] <= R[C]", "R[B] <= T[B]",
        ], id="pure-ind"),
        pytest.param([
            "R: A -> B", "R: B -> C", "R: A -> C", "R: A,B -> C",
            "S: A -> B", "S: -> C",
        ], id="pure-fd"),
        pytest.param([
            "R[A] <= S[A]", "S[A] <= T[A]", "R[A] <= T[A]",
            "T: A -> B", "S: A -> B", "T[B] <= S[B]",
        ], id="mixed-unary"),
        pytest.param([
            "R[A,B] <= S[A,B]", "R[A] <= S[A]", "S: A -> B",
            "R: A -> B", "S: A -> C", "S: A -> B,C",
        ], id="mixed-non-unary"),
        pytest.param([
            "R[A] <= S[A]", "R[A] <= S[A]", "S[A] <= T[A]",
            "R: A -> B", "R: A -> B", "R[A] <= T[A]",
        ], id="duplicates"),
    ],
)
def test_minimal_cover_matches_the_oracle_on_hand_built_sessions(premises):
    from repro.deps.parser import parse_dependency

    assert_cover_matches_oracle(
        _SCHEMA, [parse_dependency(text) for text in premises]
    )
