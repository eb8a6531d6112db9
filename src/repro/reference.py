"""Textbook reference oracles for the three decision procedures.

Each product engine has a compiled or delta-driven hot path; the plain
formulations here are what the differential property tests and the
``benchmarks/`` floors compare those paths against:

* :func:`successors_naive` / :func:`decide_ind_naive` — the uncompiled
  Corollary 3.2 expression search (per-attribute ``lhs.index`` scans),
  reference for the kernel BFS in :mod:`repro.core.ind_decision`;
* :func:`attribute_closure_naive` — the quadratic re-scan FD closure,
  reference for the [BB] counter kernel in :mod:`repro.core.fd_closure`;
* :class:`NaiveChaseEngine` / :func:`chase_implies_naive` — the
  re-scan-everything FD+IND+RD chase, reference for the delta-driven
  :class:`~repro.core.fdind_chase.ChaseEngine`.

No product module imports this one.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Union

from repro.deps.fd import FD
from repro.core.fdind_chase import (
    ChaseEngine,
    ChaseInstance,
    ChaseOutcome,
    ImplicationCertificate,
    implication_instance,
)
from repro.core.ind_decision import (
    ChainLink,
    DecisionResult,
    Expression,
    PremiseIndexMap,
    expression_of_lhs,
    expression_of_rhs,
    index_by_lhs,
)
from repro.deps.base import Dependency
from repro.deps.ind import IND
from repro.deps.rd import RD
from repro.exceptions import (
    ChaseBudgetExceeded,
    DependencyError,
    SearchBudgetExceeded,
)
from repro.model.schema import DatabaseSchema


# ---------------------------------------------------------------------------
# Corollary 3.2 expression search
# ---------------------------------------------------------------------------


def successors_naive(
    expression: Expression, premises: Union[Iterable[IND], PremiseIndexMap]
) -> Iterable[tuple[Expression, ChainLink]]:
    """The uncompiled successor computation: per-attribute
    ``lhs.index`` scans, one :class:`ChainLink` per applicable premise."""
    relation, attrs = expression
    if isinstance(premises, Mapping):
        candidates: Iterable[IND] = premises.get(relation, ())
    else:
        candidates = premises
    for premise in candidates:
        if premise.lhs_relation != relation:
            continue
        positions: list[int] = []
        applicable = True
        lhs = premise.lhs_attributes
        for attr in attrs:
            try:
                positions.append(lhs.index(attr))
            except ValueError:
                applicable = False
                break
        if not applicable:
            continue
        image = tuple(premise.rhs_attributes[p] for p in positions)
        yield (premise.rhs_relation, image), ChainLink(premise, tuple(positions))


def decide_ind_naive(
    target: IND,
    premises: Union[Iterable[IND], PremiseIndexMap],
    max_nodes: int = 2_000_000,
) -> DecisionResult:
    """The pre-kernel decision procedure: same contract and same BFS
    order as :func:`~repro.core.ind_decision.decide_ind`."""
    premise_index = (
        premises if isinstance(premises, Mapping) else index_by_lhs(premises)
    )
    start = expression_of_lhs(target)
    goal = expression_of_rhs(target)
    if start == goal:
        return DecisionResult(
            implied=True, target=target, chain=[start], links=[], explored=1,
            frontier_peak=1,
        )

    parents: dict[Expression, tuple[Expression, ChainLink]] = {}
    visited: set[Expression] = {start}
    queue: deque[Expression] = deque([start])
    explored = 0
    frontier_peak = 1

    while queue:
        frontier_peak = max(frontier_peak, len(queue))
        current = queue.popleft()
        explored += 1
        if explored > max_nodes:
            raise SearchBudgetExceeded(
                f"IND decision exceeded {max_nodes} expressions", explored=explored
            )
        for nxt, link in successors_naive(current, premise_index):
            if nxt in visited:
                continue
            visited.add(nxt)
            parents[nxt] = (current, link)
            if nxt == goal:
                chain = [nxt]
                links: list[ChainLink] = []
                node = nxt
                while node != start:
                    prev, via = parents[node]
                    chain.append(prev)
                    links.append(via)
                    node = prev
                chain.reverse()
                links.reverse()
                return DecisionResult(
                    implied=True,
                    target=target,
                    chain=chain,
                    links=links,
                    explored=explored,
                    frontier_peak=frontier_peak,
                )
            queue.append(nxt)

    return DecisionResult(
        implied=False,
        target=target,
        explored=explored,
        frontier_peak=frontier_peak,
    )


# ---------------------------------------------------------------------------
# FD attribute closure
# ---------------------------------------------------------------------------


def attribute_closure_naive(
    attrs: Iterable[str],
    fds: Iterable[FD],
    relation: str | None = None,
) -> frozenset[str]:
    """The textbook quadratic fixpoint: repeatedly add ``Y`` whenever
    some FD ``W -> Y`` has ``W`` inside the current set."""
    closure = set(attrs)
    pool = [fd for fd in fds if relation is None or fd.relation == relation]
    changed = True
    while changed:
        changed = False
        remaining = []
        for fd in pool:
            if fd.lhs_set <= closure:
                new = fd.rhs_set - closure
                if new:
                    closure |= new
                    changed = True
            else:
                remaining.append(fd)
        pool = remaining
    return frozenset(closure)


# ---------------------------------------------------------------------------
# FD+IND chase
# ---------------------------------------------------------------------------


class NaiveChaseEngine(ChaseEngine):
    """The re-scan-everything chase.

    Every rule application rescans all rows of the relation it reads
    and re-canonicalizes the instance after a merge.  The round loop
    is the product engine's structure written out independently: all
    equality rules (FDs, then RDs) to their own fixpoint, then every
    IND once, then the goal and budget checks.
    """

    def _apply_fd(self, instance: ChaseInstance, fd: FD) -> bool:
        rel_schema = self.schema.relation(fd.relation)
        lhs_pos = rel_schema.positions(fd.lhs)
        rhs_pos = rel_schema.positions(fd.rhs)
        changed = False
        groups: dict[tuple[int, ...], tuple[int, ...]] = {}
        for row in list(instance.relations[fd.relation]):
            self.rows_scanned += 1
            row = instance.canonical_row(row)
            key = tuple(row[p] for p in lhs_pos)
            image = tuple(row[p] for p in rhs_pos)
            other = groups.get(key)
            if other is None:
                groups[key] = image
                continue
            for a, b in zip(other, image):
                if instance.find(a) != instance.find(b):
                    instance.merge(a, b, fd)
                    changed = True
        if changed:
            instance.normalize()
        return changed

    def _apply_rd(self, instance: ChaseInstance, rd: RD) -> bool:
        rel_schema = self.schema.relation(rd.relation)
        changed = False
        for row in list(instance.relations[rd.relation]):
            self.rows_scanned += 1
            row = instance.canonical_row(row)
            for left, right in rd.pairs:
                a = row[rel_schema.position(left)]
                b = row[rel_schema.position(right)]
                if instance.find(a) != instance.find(b):
                    instance.merge(a, b, rd)
                    changed = True
        if changed:
            instance.normalize()
        return changed

    def _apply_ind(self, instance: ChaseInstance, ind: IND) -> bool:
        src_schema = self.schema.relation(ind.lhs_relation)
        dst_schema = self.schema.relation(ind.rhs_relation)
        src_pos = src_schema.positions(ind.lhs_attributes)
        dst_pos = dst_schema.positions(ind.rhs_attributes)
        existing = {
            tuple(row[p] for p in dst_pos)
            for row in (
                instance.canonical_row(r)
                for r in instance.relations[ind.rhs_relation]
            )
        }
        changed = False
        for row in list(instance.relations[ind.lhs_relation]):
            self.rows_scanned += 1
            row = instance.canonical_row(row)
            needed = tuple(row[p] for p in src_pos)
            if needed in existing:
                continue
            new_row: list[int] = [
                instance.fresh_null() for _ in range(dst_schema.arity)
            ]
            for value, pos in zip(needed, dst_pos):
                new_row[pos] = value
            instance.add_row(ind.rhs_relation, new_row, ind)
            existing.add(needed)
            changed = True
        return changed

    def run(
        self,
        instance: ChaseInstance,
        max_rounds: int = 200,
        max_tuples: int = 100_000,
        goal=None,
    ) -> ChaseOutcome:
        """Chase to fixpoint with full rescans; raise on budget exhaustion."""
        self.rows_scanned = 0
        rounds = 0
        if goal is not None and goal(instance):
            return ChaseOutcome(instance, rounds, reached_fixpoint=False)
        while rounds < max_rounds:
            rounds += 1
            changed = False
            equality_changed = True
            while equality_changed:
                equality_changed = False
                try:
                    for fd in self.fds:
                        if self._apply_fd(instance, fd):
                            equality_changed = True
                    for rd in self.rds:
                        if self._apply_rd(instance, rd):
                            equality_changed = True
                except DependencyError as exc:
                    return ChaseOutcome(
                        instance, rounds, reached_fixpoint=False,
                        failed=True, failure_reason=str(exc),
                        rows_scanned=self.rows_scanned,
                    )
                changed = changed or equality_changed
            for ind in self.inds:
                if self._apply_ind(instance, ind):
                    changed = True
            if goal is not None and goal(instance):
                return ChaseOutcome(instance, rounds, reached_fixpoint=False,
                                    rows_scanned=self.rows_scanned)
            if instance.total_tuples() > max_tuples:
                raise ChaseBudgetExceeded(
                    f"chase exceeded {max_tuples} tuples after {rounds} rounds",
                    rounds=rounds,
                    tuples=instance.total_tuples(),
                )
            if not changed:
                return ChaseOutcome(instance, rounds, reached_fixpoint=True,
                                    rows_scanned=self.rows_scanned)
        raise ChaseBudgetExceeded(
            f"chase did not converge within {max_rounds} rounds",
            rounds=rounds,
            tuples=instance.total_tuples(),
        )


def chase_implies_naive(
    schema: DatabaseSchema,
    premises: Iterable[Dependency],
    target: Dependency,
    max_rounds: int = 200,
    max_tuples: int = 100_000,
) -> ImplicationCertificate:
    """:func:`~repro.core.fdind_chase.chase_implies` over
    :class:`NaiveChaseEngine`: same start instance, same goal."""
    target.validate(schema)
    engine = NaiveChaseEngine(schema, premises)
    instance, goal = implication_instance(schema, target)
    outcome = engine.run(
        instance, max_rounds=max_rounds, max_tuples=max_tuples, goal=goal,
    )
    return ImplicationCertificate(goal(instance), outcome)
