"""The discovery pipeline: data -> satisfied deps -> minimal cover.

:func:`discover` orchestrates the phase sequence — FD mining per
relation, unary IND mining over the shared inverted index, the
implication-pruned n-ary lift — and then :func:`minimal_cover`
*reduces* the result with the reasoning engine: every discovered
dependency the remaining ones already imply is dropped.  Questions
are greedy, in :func:`_reduction_order`, and none of them touches the
session: an IND is masked out of one :class:`KernelIndex` over its
class and asked by the early-exit Corollary 3.2 search; an FD is asked
by the [BB] closure over its relation's other surviving FDs.  The
session receives the result at the end, in one batched ``retract`` (a
pure-class ``"full"`` reduction retracts everything and adds the
survivors back, so they end in reduction order).  Only
a forced ``"full"`` reduction of a *mixed* FD+IND set, whose engines
(the unary closure, the chase) have no masked form, still asks
through the session lifecycle (``retract`` -> ``implies`` -> ``add``
back).

Reduction strategies
--------------------

``"auto"`` (default) uses whole-premise implication whenever an exact
engine exists for every question (pure-FD, pure-IND, or the unary
fragment) and falls back to *class-local* reduction — FDs against the
other FDs, INDs against the other INDs — on mixed non-unary sets,
where whole-premise implication is only chase-semi-decidable.
``"full"`` forces whole-premise implication (budgeted; a blown chase
budget conservatively keeps the dependency), ``"class-local"`` forces
the per-class reduction.  Every strategy is sound: a dropped
dependency is always implied by what remains.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.deps.base import Dependency
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.exceptions import ChaseBudgetExceeded, SearchBudgetExceeded
from repro.discovery.fd_miner import discover_fds
from repro.discovery.ind_miner import discover_inds
from repro.discovery.report import DiscoveryReport
from repro.core.fd_closure import FDClosureKernel
from repro.core.ind_decision import decide_ind
from repro.core.ind_kernel import KernelIndex
from repro.engine.session import ReasoningSession
from repro.model.database import Database

_STRATEGIES = ("auto", "full", "class-local")


def _reduction_order(dependencies: Sequence[Dependency]) -> list[Dependency]:
    """Deterministic reduction order: INDs by descending arity first,
    then FDs by descending left-hand-side size, ties by rendering.

    High-arity INDs are questioned while every projection is still
    present (projections never imply their extension, so the strong
    INDs survive and the redundant projections fall right after);
    wide-lhs FDs are the augmentation-redundant ones and fall early.
    """

    def rank(dep: Dependency) -> tuple:
        if isinstance(dep, IND):
            return (0, -dep.arity, str(dep))
        if isinstance(dep, FD):
            return (1, -len(dep.lhs), str(dep))
        return (2, 0, str(dep))

    return sorted(dependencies, key=rank)


def _exact_engines_cover(session: ReasoningSession) -> bool:
    """Whether every premise-set question has an exact engine."""
    index = session.index
    return index.pure_ind or index.pure_fd or (
        index.all_unary and not index.rds
    )


def _implied_without(session: ReasoningSession, dep: Dependency) -> bool:
    """Whether the session's *other* premises imply ``dep``.

    The dependency is retracted, asked, and added back unless implied.
    Only ``"full"`` reduction of mixed premise sets asks this way (the
    unary FD+IND closure and the chase have no masked form); pure
    classes go through :func:`_reduce_inds` / :func:`_reduce_fds`.  A
    blown chase/search budget conservatively counts as "not implied".
    """
    session.retract(dep)
    try:
        implied = session.implies(dep).verdict
    except (ChaseBudgetExceeded, SearchBudgetExceeded):
        implied = False
    if not implied:
        session.add(dep)
    return implied


def _reduce_inds(inds: Sequence[IND], max_nodes: int) -> list[IND]:
    """The INDs the others do not imply, in reduction order.

    One kernel index over the class; each candidate's kernel is masked
    out (discarded) while the early-exit Corollary 3.2 search asks
    whether the rest reach it, and put back only when they do not.  A
    blown search budget conservatively counts as "not implied".
    """
    kernels = KernelIndex(inds)
    kept: list[IND] = []
    for ind in _reduction_order(inds):
        kernels.discard(ind)
        try:
            implied = decide_ind(ind, kernels, max_nodes=max_nodes).implied
        except SearchBudgetExceeded:
            implied = False
        if not implied:
            kernels.add(ind)
            kept.append(ind)
    return kept


def _reduce_fds(fds: Sequence[FD]) -> list[FD]:
    """The FDs the others do not imply, in reduction order.

    FDs only interact within a relation, so each candidate is decided
    by the [BB] closure over its relation's other surviving FDs.
    """
    remaining: dict[str, list[FD]] = {}
    for fd in fds:
        remaining.setdefault(fd.relation, []).append(fd)
    kept: list[FD] = []
    for fd in _reduction_order(fds):
        others = remaining[fd.relation]
        others.remove(fd)
        if not FDClosureKernel(others).implies(fd):
            others.append(fd)
            kept.append(fd)
    return kept


def minimal_cover(
    session: ReasoningSession, strategy: str = "auto"
) -> list[Dependency]:
    """Drop every session premise the remaining premises imply.

    Mutates ``session`` in place (the kept premises *are* the cover)
    and returns the cover in the session's premise order.  See the
    module docstring for the strategy semantics; every strategy is
    sound, "full"/"auto"-with-exact-engines are also locally minimal
    (no kept dependency is implied by the others).
    """
    if strategy not in _STRATEGIES:
        raise ValueError(
            f"unknown reduction strategy {strategy!r}; "
            f"expected one of {_STRATEGIES}"
        )
    if strategy == "auto":
        strategy = (
            "full" if _exact_engines_cover(session) else "class-local"
        )
    index = session.index
    deps = session.dependencies

    if strategy == "full" and (index.pure_ind or index.pure_fd):
        kept = (
            _reduce_inds(deps, session.max_nodes) if index.pure_ind
            else _reduce_fds(deps)
        )
        # Survivors end in reduction order, as if each had been
        # retracted and added back.
        if deps:
            session.retract(deps)
        if kept:
            session.add(kept)
        return list(session.dependencies)

    if strategy == "full":
        for dep in _reduction_order(deps):
            _implied_without(session, dep)
        return list(session.dependencies)

    # Class-local: reduce each class against its own kind only (sound:
    # implication from a premise subset is implication from the set).
    fds = [dep for dep in deps if isinstance(dep, FD)]
    inds = [dep for dep in deps if isinstance(dep, IND)]
    # A class of one is kept unquestioned (even a trivial dependency).
    keep_fd = _reduce_fds(fds) if len(fds) > 1 else fds
    keep_ind = (
        _reduce_inds(inds, session.max_nodes) if len(inds) > 1 else inds
    )
    dropped = (set(fds) - set(keep_fd)) | (set(inds) - set(keep_ind))
    doomed = [dep for dep in deps if dep in dropped]
    if doomed:
        session.retract(doomed)
    return list(session.dependencies)


def discover(
    db: Database,
    classes: Iterable[str] = ("fd", "ind"),
    max_lhs: Optional[int] = None,
    max_ind_arity: Optional[int] = None,
    prune: bool = True,
    reduce: bool = True,
    reduce_strategy: str = "auto",
) -> DiscoveryReport:
    """Mine the dependencies ``db`` satisfies and reduce them.

    ``classes`` selects what to mine (``"fd"``, ``"ind"``, or both);
    ``max_lhs`` / ``max_ind_arity`` bound the FD lattice walk and the
    IND apriori lift; ``prune=False`` disables implication pruning
    (the validate-everything baseline, for benchmarking); ``reduce``
    runs :func:`minimal_cover` over the result.

    Every dependency in the returned report holds in ``db``; on small
    schemas the report implies every FD/IND that holds (exactness —
    see the property tests).
    """
    wanted = set(classes)
    unknown = wanted - {"fd", "ind"}
    if unknown:
        raise ValueError(
            f"unknown dependency class(es) {sorted(unknown)}; "
            "discovery mines 'fd' and 'ind'"
        )
    report = DiscoveryReport(schema=db.schema)
    if "fd" in wanted:
        report.fds = discover_fds(
            db, counters=report.counters("fd"), max_lhs=max_lhs
        )
    if "ind" in wanted:
        report.inds = discover_inds(
            db,
            counters=report.counters("nary_ind"),
            unary_counters=report.counters("unary_ind"),
            max_arity=max_ind_arity,
            prune=prune,
        )
    report.cover = report.dependencies
    if reduce and report.cover:
        # No "reduce" counter phase: the mining phases already counted
        # every dependency once, and totals() must not double-count.
        session = ReasoningSession(db.schema, report.cover, db=db)
        report.cover = minimal_cover(session, strategy=reduce_strategy)
        report.reduced = True
        report.session = session
    return report
