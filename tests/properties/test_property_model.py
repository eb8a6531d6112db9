"""Property-based tests for the relational substrate."""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.deps.ind import IND
from repro.model.builders import database

from tests.properties.strategies import databases, inds, schemas

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)


@COMMON
@given(schemas(), st.data())
def test_projection_composes(schema, data):
    """Projecting onto X then reading column j equals projecting onto
    (X[j],) directly."""
    db = data.draw(databases(schema))
    for rel in db:
        attrs = rel.schema.attributes
        sub = data.draw(st.permutations(list(attrs)))
        sub = tuple(sub[: max(1, len(sub) // 2)])
        wide = rel.project(sub)
        for index, attr in enumerate(sub):
            narrow = rel.project((attr,))
            assert {((row[index]),) for row in wide} == {
                (v,) for (v,) in narrow
            }


@COMMON
@given(schemas(), st.data())
def test_projection_cardinality_bounds(schema, data):
    db = data.draw(databases(schema))
    for rel in db:
        attrs = rel.schema.attributes
        assert len(rel.project(attrs)) == len(rel)
        for attr in attrs:
            assert len(rel.project((attr,))) <= len(rel)


@COMMON
@given(schemas(), st.data())
def test_trivial_ind_always_holds(schema, data):
    db = data.draw(databases(schema))
    for rel in schema:
        perm = data.draw(st.permutations(list(rel.attributes)))
        ind = IND(rel.name, tuple(perm), rel.name, tuple(perm))
        assert db.satisfies(ind)


@COMMON
@given(schemas(), st.data())
def test_ind_canonicalization_preserves_satisfaction(schema, data):
    """An IND and its canonical representative agree on all databases
    (the correctness condition for IND.__eq__)."""
    from tests.properties.strategies import inds

    db = data.draw(databases(schema))
    ind = data.draw(inds(schema))
    assert db.satisfies(ind) == db.satisfies(ind.canonical())


@COMMON
@given(schemas(), st.data())
def test_with_tuples_monotone_for_target(schema, data):
    """Adding tuples to the *target* of an IND never breaks it."""
    from tests.properties.strategies import inds

    db = data.draw(databases(schema))
    ind = data.draw(inds(schema))
    if not db.satisfies(ind):
        return
    target_rel = db.relation(ind.rhs_relation)
    extra = tuple(
        data.draw(st.integers(0, 3)) for _ in range(target_rel.schema.arity)
    )
    bigger = db.with_tuples(ind.rhs_relation, [extra])
    assert bigger.satisfies(ind) or ind.lhs_relation == ind.rhs_relation


def _projection(rel, attrs) -> set:
    """``{t[X] : t in r}`` straight from the definition."""
    positions = [rel.schema.attributes.index(attr) for attr in attrs]
    return {tuple(row[p] for p in positions) for row in rel.tuples}


@st.composite
def ind_instances(draw):
    schema = draw(schemas())
    return draw(databases(schema, max_tuples=4, domain=3)), draw(inds(schema))


_PAIR = {"R": ("A", "B"), "S": ("A", "B")}


@COMMON
@given(ind_instances())
@example((database(_PAIR, {"S": [(1, 2)]}), IND("R", "A", "S", "B")))
@example((database(_PAIR, {"R": [(1, 2)]}), IND("R", "A", "S", "B")))
@example((database(_PAIR, {"R": [(1, 2)], "S": [(1, 2)]}),
          IND("R", ("A", "B"), "S", ("A", "B"))))
@example((database(_PAIR, {"R": [(1, 2)], "S": [(2, 1)]}),
          IND("R", ("A", "B"), "S", ("B", "A"))))
@example((database(_PAIR, {"R": [(1, 2), (2, 3)]}),
          IND("R", "B", "R", "A")))
@example((database(_PAIR, {"R": [(1, 2), (2, 1)]}),
          IND("R", ("A", "B"), "R", ("B", "A"))))
def test_ind_holds_in_matches_the_definition(instance):
    """``holds_in`` (streamed left side, early exit) decides exactly
    ``{t[X] : t in r} <= {u[Y] : u in s}``, and ``project`` returns
    exactly ``{t[X] : t in r}`` on both sides.  The examples pin an
    empty left and an empty right relation, arity 1, permuted sides
    and a self-relation IND."""
    db, ind = instance
    left = db.relation(ind.lhs_relation)
    right = db.relation(ind.rhs_relation)
    source = _projection(left, ind.lhs_attributes)
    target = _projection(right, ind.rhs_attributes)
    assert left.project(ind.lhs_attributes) == source
    assert right.project(ind.rhs_attributes) == target
    assert ind.holds_in(db) == (source <= target)
    assert ind.reversed().holds_in(db) == (target <= source)
