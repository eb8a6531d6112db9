"""Hypothesis strategies shared by the property-based tests."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.deps.rd import RD
from repro.model.builders import database
from repro.model.schema import DatabaseSchema, RelationSchema

ATTRS = ("A", "B", "C", "D")
RELATIONS = ("R", "S", "T")


@st.composite
def schemas(draw, max_relations: int = 3, min_arity: int = 1, max_arity: int = 4):
    """A random database scheme over fixed relation/attribute pools."""
    count = draw(st.integers(1, max_relations))
    rels = []
    for index in range(count):
        arity = draw(st.integers(min_arity, max_arity))
        rels.append(RelationSchema(RELATIONS[index], ATTRS[:arity]))
    return DatabaseSchema(rels)


@st.composite
def attribute_subsequences(draw, schema: RelationSchema, min_size: int = 1):
    """A sequence of distinct attributes of one relation scheme."""
    size = draw(st.integers(min_size, schema.arity))
    return tuple(
        draw(
            st.permutations(list(schema.attributes))
        )[:size]
    )


@st.composite
def inds(draw, db_schema: DatabaseSchema):
    """A random well-formed IND over ``db_schema``."""
    rels = list(db_schema)
    source = draw(st.sampled_from(rels))
    target = draw(st.sampled_from(rels))
    arity = draw(st.integers(1, min(source.arity, target.arity)))
    lhs = tuple(draw(st.permutations(list(source.attributes)))[:arity])
    rhs = tuple(draw(st.permutations(list(target.attributes)))[:arity])
    return IND(source.name, lhs, target.name, rhs)


@st.composite
def fds(draw, db_schema: DatabaseSchema):
    """A random well-formed FD over ``db_schema``."""
    rels = [rel for rel in db_schema if rel.arity >= 1]
    rel = draw(st.sampled_from(rels))
    lhs_size = draw(st.integers(0, rel.arity - 1 if rel.arity > 1 else 0))
    perm = draw(st.permutations(list(rel.attributes)))
    lhs = tuple(perm[:lhs_size]) or None
    rhs = (draw(st.sampled_from(list(rel.attributes))),)
    return FD(rel.name, lhs, rhs)


@st.composite
def rds(draw, db_schema: DatabaseSchema):
    """A random well-formed RD ``R[X = Y]`` over ``db_schema``."""
    rel = draw(st.sampled_from(list(db_schema)))
    size = draw(st.integers(1, rel.arity))
    left = tuple(draw(st.permutations(list(rel.attributes)))[:size])
    right = tuple(draw(st.permutations(list(rel.attributes)))[:size])
    return RD(rel.name, left, right)


@st.composite
def databases(draw, db_schema: DatabaseSchema, max_tuples: int = 5,
              domain: int = 4):
    """A random finite database over ``db_schema``."""
    contents = {}
    for rel in db_schema:
        n_tuples = draw(st.integers(0, max_tuples))
        rows = [
            tuple(
                draw(st.integers(0, domain - 1)) for _ in range(rel.arity)
            )
            for _ in range(n_tuples)
        ]
        contents[rel.name] = rows
    return database(db_schema, contents)
