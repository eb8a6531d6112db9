"""Inclusion dependencies ``R[A1,...,Am] c S[B1,...,Bm]`` (Section 2).

An IND holds when the projection of ``R`` onto the left attribute
sequence is a subset of the projection of ``S`` onto the right one.
Both sides are sequences of *distinct* attributes of equal length.

Satisfaction is invariant under applying one permutation to both
sides simultaneously; equality/hashing canonicalizes accordingly
(sort the left side, carry the right side along).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.exceptions import DependencyError, SchemaError
from repro.deps.base import Dependency
from repro.model.attributes import check_distinct

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.model.database import Database
    from repro.model.schema import DatabaseSchema


class IND(Dependency):
    """The inclusion dependency ``R[X] c S[Y]``."""

    __slots__ = (
        "lhs_relation",
        "lhs_attributes",
        "rhs_relation",
        "rhs_attributes",
        "_key_memo",
        "_kernel_memo",
    )

    def __init__(
        self,
        lhs_relation: str,
        lhs_attributes: str | Iterable[str],
        rhs_relation: str,
        rhs_attributes: str | Iterable[str],
    ):
        if not lhs_relation or not rhs_relation:
            raise DependencyError("IND needs relation names on both sides")
        try:
            lhs = check_distinct(lhs_attributes, context="IND left-hand side")
            rhs = check_distinct(rhs_attributes, context="IND right-hand side")
        except SchemaError as exc:
            raise DependencyError(str(exc)) from exc
        if not lhs:
            raise DependencyError("IND sides must be non-empty")
        if len(lhs) != len(rhs):
            raise DependencyError(
                f"IND sides must have equal arity: |{lhs}| != |{rhs}|"
            )
        self.lhs_relation = lhs_relation
        self.lhs_attributes = lhs
        self.rhs_relation = rhs_relation
        self.rhs_attributes = rhs

    # -- structure ------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of attributes on each side."""
        return len(self.lhs_attributes)

    def is_trivial(self) -> bool:
        """``R[X] c R[X]`` is the only tautological form (rule IND1)."""
        return (
            self.lhs_relation == self.rhs_relation
            and self.lhs_attributes == self.rhs_attributes
        )

    def is_unary(self) -> bool:
        return self.arity == 1

    def is_typed(self) -> bool:
        """Typed INDs ``R[X] c S[X]`` repeat the same attribute sequence.

        The paper notes these have a polynomial-time decision problem.
        """
        return self.lhs_attributes == self.rhs_attributes

    def is_at_most_kary(self, k: int) -> bool:
        """Whether the IND's arity is at most ``k`` (another poly case)."""
        return self.arity <= k

    def relations(self) -> tuple[str, ...]:
        if self.lhs_relation == self.rhs_relation:
            return (self.lhs_relation,)
        return (self.lhs_relation, self.rhs_relation)

    def rename(self, mapping: dict[str, str]) -> "IND":
        return IND(
            mapping.get(self.lhs_relation, self.lhs_relation),
            self.lhs_attributes,
            mapping.get(self.rhs_relation, self.rhs_relation),
            self.rhs_attributes,
        )

    def validate(self, schema: "DatabaseSchema") -> None:
        lhs_schema = schema.relation(self.lhs_relation)
        rhs_schema = schema.relation(self.rhs_relation)
        for attr in self.lhs_attributes:
            if attr not in lhs_schema:
                raise DependencyError(f"attribute {attr!r} of {self} not in {lhs_schema}")
        for attr in self.rhs_attributes:
            if attr not in rhs_schema:
                raise DependencyError(f"attribute {attr!r} of {self} not in {rhs_schema}")

    def attribute_mapping(self) -> dict[str, str]:
        """The positional map from left attributes to right attributes.

        Used by the Corollary 3.2 decision procedure when applying rule
        IND2 (projection and permutation).
        """
        return dict(zip(self.lhs_attributes, self.rhs_attributes))

    # -- semantics ------------------------------------------------------

    def holds_in(self, db: "Database") -> bool:
        """Whether ``r[X]`` is inside ``s[Y]``.

        Only the right side is materialized; the left side's rows are
        streamed against it, so a violated IND stops at the first
        missing row.
        """
        target = set(
            db.relation(self.rhs_relation).project_keys(self.rhs_attributes)
        )
        return target.issuperset(
            db.relation(self.lhs_relation).project_keys(self.lhs_attributes)
        )

    def violations(self, db: "Database") -> list[tuple]:
        """Left-projection tuples missing from the right projection."""
        source = db.relation(self.lhs_relation).project(self.lhs_attributes)
        target = db.relation(self.rhs_relation).project(self.rhs_attributes)
        return sorted(source - target, key=repr)

    # -- identity -------------------------------------------------------

    def _canonical_sides(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        order = sorted(range(self.arity), key=lambda i: self.lhs_attributes[i])
        lhs = tuple(self.lhs_attributes[i] for i in order)
        rhs = tuple(self.rhs_attributes[i] for i in order)
        return lhs, rhs

    def canonical(self) -> "IND":
        """Representative with a sorted left-hand side."""
        lhs, rhs = self._canonical_sides()
        return IND(self.lhs_relation, lhs, self.rhs_relation, rhs)

    def _key(self) -> tuple:
        # Memoized: equality/hashing is hot in the session lifecycle
        # (retract scans the premise list), and the sides never change.
        memo = getattr(self, "_key_memo", None)
        if memo is None:
            lhs, rhs = self._canonical_sides()
            memo = ("IND", self.lhs_relation, lhs, self.rhs_relation, rhs)
            self._key_memo = memo
        return memo

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IND):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return (
            f"{self.lhs_relation}[{','.join(self.lhs_attributes)}] <= "
            f"{self.rhs_relation}[{','.join(self.rhs_attributes)}]"
        )

    def __repr__(self) -> str:
        return (
            f"IND({self.lhs_relation!r}, {self.lhs_attributes!r}, "
            f"{self.rhs_relation!r}, {self.rhs_attributes!r})"
        )

    # -- convenience ----------------------------------------------------

    def reversed(self) -> "IND":
        """The converse inclusion ``S[Y] c R[X]``.

        Not implied in general; it *is* finitely implied in the cycle
        situations of Theorem 4.4 and Section 6.
        """
        return IND(
            self.rhs_relation, self.rhs_attributes, self.lhs_relation, self.lhs_attributes
        )

    def project_onto(self, indices: Iterable[int]) -> "IND":
        """Rule IND2: project/permute both sides by ``indices``.

        ``indices`` are distinct zero-based positions into the sides.
        """
        idx = tuple(indices)
        if len(idx) != len(set(idx)):
            raise DependencyError("IND2 selection indices must be distinct")
        if not idx:
            raise DependencyError("IND2 selection must be non-empty")
        for i in idx:
            if not 0 <= i < self.arity:
                raise DependencyError(f"IND2 selection index {i} out of range")
        return IND(
            self.lhs_relation,
            tuple(self.lhs_attributes[i] for i in idx),
            self.rhs_relation,
            tuple(self.rhs_attributes[i] for i in idx),
        )
