"""Finite relations: sets of tuples over a relation scheme.

A relation over ``R[A1,...,Am]`` is a set of length-``m`` tuples.  The
central operation is projection onto an attribute sequence, written
``r[X]`` in the paper and :meth:`Relation.project` here.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator

from repro.exceptions import SchemaError
from repro.model.schema import RelationSchema

Row = tuple[Any, ...]


def _key_getter(positions: tuple[int, ...]) -> Callable[[Row], Any]:
    """A C-level ``t -> t[X]`` for the column ``positions``.

    ``operator.itemgetter`` returns the bare value, not a 1-tuple, when
    ``X`` has one column; two getters over the same number of columns
    therefore produce comparable keys, which is all set membership
    needs.  :meth:`Relation.project` wraps single values back into
    tuples.
    """
    if not positions:
        return lambda row: ()
    return itemgetter(*positions)


class Relation:
    """An immutable finite relation over a :class:`RelationSchema`."""

    __slots__ = ("schema", "_tuples")

    def __init__(self, schema: RelationSchema, tuples: Iterable[Iterable[Any]] = ()):
        rows: set[Row] = set()
        arity = schema.arity
        for raw in tuples:
            row = tuple(raw)
            if len(row) != arity:
                raise SchemaError(
                    f"tuple {row!r} has length {len(row)}, but scheme "
                    f"{schema} has arity {arity}"
                )
            rows.add(row)
        self.schema = schema
        self._tuples: frozenset[Row] = frozenset(rows)

    @property
    def tuples(self) -> frozenset[Row]:
        """The tuple set of the relation."""
        return self._tuples

    @property
    def name(self) -> str:
        return self.schema.name

    def __iter__(self) -> Iterator[Row]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __contains__(self, row: Iterable[Any]) -> bool:
        return tuple(row) in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return self.schema == other.schema and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self.schema, self._tuples))

    @property
    def is_empty(self) -> bool:
        return not self._tuples

    def project(self, attrs: str | Iterable[str]) -> frozenset[Row]:
        """The projection ``r[X]`` as a set of sub-tuples.

        ``attrs`` is an attribute *sequence*; the resulting sub-tuples
        preserve its order, matching the paper's definition
        ``r[X] = {t[X] : t in r}``.
        """
        positions = self.schema.positions(attrs)
        keys = map(_key_getter(positions), self._tuples)
        return frozenset(zip(keys) if len(positions) == 1 else keys)

    def project_keys(self, attrs: str | Iterable[str]) -> Iterator[Any]:
        """A lazy stream of ``t[X]`` keys, one per tuple (see :func:`_key_getter`).

        Keys of a single attribute are bare values; compare them only
        with keys of another single-attribute projection.
        """
        return map(_key_getter(self.schema.positions(attrs)), self._tuples)

    def project_tuple(self, row: Row, attrs: str | Iterable[str]) -> Row:
        """``t[X]`` for a single tuple ``t`` of this relation."""
        positions = self.schema.positions(attrs)
        return tuple(row[p] for p in positions)

    def column(self, attribute: str) -> frozenset[Any]:
        """The set of entries in a single column (``r[A]`` flattened)."""
        position = self.schema.position(attribute)
        return frozenset(row[position] for row in self._tuples)

    def active_domain(self) -> frozenset[Any]:
        """All values occurring anywhere in the relation."""
        return frozenset(value for row in self._tuples for value in row)

    def with_tuples(self, extra: Iterable[Iterable[Any]]) -> "Relation":
        """A new relation with ``extra`` tuples added."""
        return Relation(self.schema, list(self._tuples) + [tuple(t) for t in extra])

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic order (for display and printing)."""
        return sorted(self._tuples, key=repr)

    def __str__(self) -> str:
        header = str(self.schema)
        body = "\n".join("  " + ", ".join(repr(v) for v in row) for row in self.sorted_rows())
        return header if self.is_empty else f"{header}\n{body}"

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {sorted(self._tuples, key=repr)!r})"
