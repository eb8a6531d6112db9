"""The functional-dependency substrate.

The paper repeatedly leans on classical FD theory: the decision
procedure for FDs is the template for the Corollary 3.2 procedure
("Our procedure is quite similar to a decision procedure for FDs
[BB]"), and the Section 7 constructions compute closures ``phi+`` of
FD sets.  This module implements attribute-set closure, FD
implication, implied-FD enumeration, minimal covers, and candidate
keys from scratch.

Set semantics are used throughout (FD satisfaction depends only on the
attribute sets).  Empty left-hand sides are supported: ``R: 0 -> A``
forces column ``A`` to be constant.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from repro.deps.fd import FD
from repro.model.schema import RelationSchema


def _relevant(fds: Iterable[FD], relation: str) -> list[FD]:
    """FDs over ``relation`` only; FDs cannot cross relation schemes."""
    return [fd for fd in fds if fd.relation == relation]


class FDClosureKernel:
    """An FD set compiled for linear-time attribute closure.

    The Beeri–Bernstein procedure the paper cites as the template for
    its own IND algorithm ("[BB]"): per-FD counters of left-hand
    attributes not yet in the closure, plus attribute -> FD incidence
    lists.  Each attribute enters the closure once and decrements each
    incident counter once, so one closure query is ``O(total FD
    size)`` instead of the quadratic re-scan fixpoint (whose textbook
    form :mod:`repro.reference` keeps for differential testing).

    Compile once per FD set — ``PremiseIndex`` keeps one kernel per
    relation and reuses it across every closure, implication,
    candidate-key, and session-memo query until that relation's FDs
    mutate.
    """

    __slots__ = ("fds", "_lhs_sizes", "_rhs", "_by_attr", "_instant")

    def __init__(self, fds: Iterable[FD]):
        self.fds: tuple[FD, ...] = tuple(fds)
        self._lhs_sizes: list[int] = []
        self._rhs: list[tuple[str, ...]] = []
        by_attr: dict[str, list[int]] = {}
        self._instant: list[int] = []  # empty-lhs FDs fire unconditionally
        for index, fd in enumerate(self.fds):
            lhs = fd.lhs_set
            self._lhs_sizes.append(len(lhs))
            self._rhs.append(tuple(fd.rhs_set))
            if not lhs:
                self._instant.append(index)
            for attr in lhs:
                by_attr.setdefault(attr, []).append(index)
        self._by_attr: dict[str, tuple[int, ...]] = {
            attr: tuple(indices) for attr, indices in by_attr.items()
        }

    def closure(self, attrs: Iterable[str]) -> frozenset[str]:
        """The closure ``X+`` of ``attrs``, in linear time."""
        closure = set(attrs)
        counts = list(self._lhs_sizes)
        queue = list(closure)
        rhs = self._rhs
        by_attr = self._by_attr
        for index in self._instant:
            for attr in rhs[index]:
                if attr not in closure:
                    closure.add(attr)
                    queue.append(attr)
        while queue:
            attr = queue.pop()
            for index in by_attr.get(attr, ()):
                counts[index] -= 1
                if counts[index] == 0:
                    for added in rhs[index]:
                        if added not in closure:
                            closure.add(added)
                            queue.append(added)
        return frozenset(closure)

    def implies(self, fd: FD) -> bool:
        """Whether this kernel's FD set implies ``fd`` (same relation)."""
        return fd.rhs_set <= self.closure(fd.lhs_set)


def attribute_closure(
    attrs: Iterable[str],
    fds: Iterable[FD],
    relation: str | None = None,
) -> frozenset[str]:
    """The closure ``X+`` of an attribute set under a set of FDs.

    Linear in the total size of the FD set (the [BB] counter
    procedure; see :class:`FDClosureKernel`).  When ``relation`` is
    given, only FDs over that relation participate.  Callers issuing
    many queries against one FD set should compile a kernel once and
    reuse it instead.

    >>> fds = [FD("R", "A", "B"), FD("R", "B", "C")]
    >>> sorted(attribute_closure({"A"}, fds))
    ['A', 'B', 'C']
    """
    pool = list(fds) if relation is None else _relevant(fds, relation)
    return FDClosureKernel(pool).closure(attrs)


def fd_implies(fds: Iterable[FD], fd: FD) -> bool:
    """Whether a set of FDs logically implies ``fd``.

    For FDs, finite and unrestricted implication coincide, and both are
    decided by closure: ``Sigma implies X -> Y`` iff ``Y`` is inside
    ``X+`` computed over the FDs of the same relation.
    """
    closure = attribute_closure(fd.lhs_set, fds, relation=fd.relation)
    return fd.rhs_set <= closure


def implied_fds(
    fds: Iterable[FD],
    schema: RelationSchema,
    include_trivial: bool = True,
    singleton_rhs: bool = True,
) -> set[FD]:
    """All FDs over ``schema`` implied by ``fds`` (the paper's ``phi+``).

    Used by the Section 7 verifications, which compare the FDs holding
    in a constructed database against the closure of a designated set.
    """
    from repro.deps.enumeration import all_fds

    kernel = FDClosureKernel(_relevant(fds, schema.name))
    result: set[FD] = set()
    for candidate in all_fds(
        schema,
        include_trivial=include_trivial,
        singleton_rhs=singleton_rhs,
    ):
        if kernel.implies(candidate):
            result.add(candidate)
    return result


def equivalent_fd_sets(first: Iterable[FD], second: Iterable[FD]) -> bool:
    """Whether two FD sets imply each other."""
    first, second = list(first), list(second)
    return all(fd_implies(first, fd) for fd in second) and all(
        fd_implies(second, fd) for fd in first
    )


def minimal_cover(fds: Iterable[FD]) -> list[FD]:
    """A minimal (canonical) cover: singleton rhs, no redundant
    attributes on the left, no redundant FDs.

    The result is logically equivalent to the input.
    """
    # Step 1: singleton right-hand sides.
    working: list[FD] = []
    for fd in fds:
        working.extend(fd.decompose())
    # Step 2: remove extraneous lhs attributes.
    reduced: list[FD] = []
    for fd in working:
        lhs = list(fd.lhs)
        changed = True
        while changed and len(lhs) > 0:
            changed = False
            for attr in list(lhs):
                candidate = [a for a in lhs if a != attr]
                trial = FD(fd.relation, candidate or None, fd.rhs)
                if fd_implies(working, trial):
                    lhs = candidate
                    changed = True
                    break
        reduced.append(FD(fd.relation, lhs or None, fd.rhs))
    # Step 3: remove redundant FDs.
    result = list(dict.fromkeys(reduced))  # dedupe, keep order
    index = 0
    while index < len(result):
        fd = result[index]
        rest = result[:index] + result[index + 1:]
        if fd_implies(rest, fd):
            result = rest
        else:
            index += 1
    return result


def candidate_keys(
    schema: RelationSchema,
    fds: Iterable[FD],
    kernel: FDClosureKernel | None = None,
) -> list[frozenset[str]]:
    """All candidate keys of ``schema`` under ``fds``.

    A key is a minimal attribute set whose closure covers the scheme.
    Exponential in the worst case (unavoidable), so the FD set is
    compiled once (or passed in pre-compiled) and every candidate is a
    linear-time closure query.
    """
    if kernel is None:
        kernel = FDClosureKernel(_relevant(fds, schema.name))
    attrs = tuple(sorted(schema.attributes))
    universe = frozenset(attrs)
    keys: list[frozenset[str]] = []
    for size in range(0, len(attrs) + 1):
        for combo in combinations(attrs, size):
            candidate = frozenset(combo)
            if any(key <= candidate for key in keys):
                continue
            if kernel.closure(candidate) == universe:
                keys.append(candidate)
    return keys


def closure_derivation(
    attrs: Iterable[str], fds: Sequence[FD], relation: str | None = None
) -> list[tuple[FD, frozenset[str]]]:
    """The closure fixpoint as an auditable derivation.

    Returns the list of (fd applied, attributes added) steps, in order.
    Useful for explaining *why* an FD is implied.
    """
    closure = set(attrs)
    pool = list(fds) if relation is None else _relevant(fds, relation)
    steps: list[tuple[FD, frozenset[str]]] = []
    changed = True
    while changed:
        changed = False
        for fd in pool:
            if fd.lhs_set <= closure:
                new = fd.rhs_set - closure
                if new:
                    closure |= new
                    steps.append((fd, frozenset(new)))
                    changed = True
    return steps
