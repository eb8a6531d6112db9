"""The discover() orchestration and the minimal-cover reduction."""

import gc

import pytest

from repro.core.ind_kernel import INDKernel
from repro.deps.fd import FD
from repro.deps.ind import IND
from repro.discovery import discover, minimal_cover
from repro.engine import ReasoningSession
from repro.model.builders import database


def demo_db():
    return database(
        {"R": ("A", "B", "C"), "S": ("A", "B")},
        {
            "R": [(1, 10, 7), (2, 20, 7), (3, 10, 7)],
            "S": [(1, 10), (2, 20), (3, 10), (9, 90)],
        },
    )


class TestDiscover:
    def test_end_to_end_report(self):
        report = discover(demo_db())
        assert FD("R", ("A",), ("B",)) in report.fds
        assert FD("R", None, ("C",)) in report.fds
        assert IND("R", ("A", "B"), "S", ("A", "B")) in report.inds
        assert report.reduced
        # The binary IND subsumes its unary projections in the cover.
        assert IND("R", ("A", "B"), "S", ("A", "B")) in report.cover
        assert IND("R", ("A",), "S", ("A",)) not in report.cover

    def test_every_cover_dep_holds(self):
        db = demo_db()
        report = discover(db)
        assert db.satisfies_all(report.cover)
        assert db.satisfies_all(report.dependencies)

    def test_classes_filter(self):
        db = demo_db()
        only_fds = discover(db, classes=("fd",))
        assert only_fds.fds and not only_fds.inds
        only_inds = discover(db, classes=("ind",))
        assert only_inds.inds and not only_inds.fds

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown dependency class"):
            discover(demo_db(), classes=("fd", "mvd"))

    def test_no_reduce_keeps_everything(self):
        report = discover(demo_db(), reduce=False)
        assert not report.reduced
        assert report.cover == report.dependencies

    def test_a_pass_leaves_no_cyclic_ind_garbage(self):
        """Compiled INDs die by reference counting: a kernel points
        back at its premise only weakly, so a pass leaves no IND or
        kernel for the cycle collector."""
        db = demo_db()
        discover(db)
        gc.collect()
        flags = gc.get_debug()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            discover(db)
            gc.collect()
            leaked = [
                obj for obj in gc.garbage if isinstance(obj, (IND, INDKernel))
            ]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert leaked == []

    def test_totals_aggregate_phases(self):
        report = discover(demo_db())
        totals = report.totals()
        assert totals["candidates_generated"] > 0
        assert totals["validated"] > 0
        assert "fd" in report.phases and "unary_ind" in report.phases


class TestMinimalCover:
    def test_cover_still_implies_everything_dropped(self):
        db = demo_db()
        full = discover(db, reduce=False).dependencies
        session = ReasoningSession(db.schema, full, db=db)
        cover = minimal_cover(session)
        recovered = ReasoningSession(db.schema, cover)
        for dep in full:
            assert recovered.implies(dep).verdict, dep

    def test_full_strategy_is_locally_minimal(self):
        schema = database({"R": ("A", "B"), "S": ("A", "B")}).schema
        deps = [
            IND("R", ("A",), "S", ("A",)),
            IND("R", ("A", "B"), "S", ("A", "B")),
            IND("R", ("B",), "S", ("B",)),
        ]
        session = ReasoningSession(schema, deps)
        cover = minimal_cover(session, strategy="full")
        assert cover == [IND("R", ("A", "B"), "S", ("A", "B"))]
        assert list(session.dependencies) == cover  # mutated in place

    def test_class_local_reduces_each_class(self):
        schema = database({"R": ("A", "B", "C"), "S": ("A",)}).schema
        deps = [
            FD("R", ("A",), ("B",)),
            FD("R", ("B",), ("C",)),
            FD("R", ("A",), ("C",)),  # transitively implied
            IND("R", ("A",), "S", ("A",)),
        ]
        session = ReasoningSession(schema, deps)
        cover = minimal_cover(session, strategy="class-local")
        assert FD("R", ("A",), ("C",)) not in cover
        assert IND("R", ("A",), "S", ("A",)) in cover

    def test_unknown_strategy_rejected(self):
        session = ReasoningSession(database({"R": ("A",)}).schema)
        with pytest.raises(ValueError, match="unknown reduction strategy"):
            minimal_cover(session, strategy="bogus")


class TestFromDatabase:
    def test_session_carries_cover_db_and_report(self):
        db = demo_db()
        session = ReasoningSession.from_database(db)
        assert session.db is db
        assert session.discovery is not None
        assert list(session.dependencies) == list(session.discovery.cover)
        assert session.check().ok  # the data satisfies its own cover
        assert session.implies("R: A -> B").verdict

    def test_fork_inherits_the_report(self):
        session = ReasoningSession.from_database(demo_db())
        child = session.fork()
        assert child.discovery is session.discovery

    def test_options_forwarded(self):
        session = ReasoningSession.from_database(
            demo_db(), classes=("fd",), reduce=False, max_nodes=123
        )
        assert session.max_nodes == 123
        assert all(isinstance(dep, FD) for dep in session.dependencies)

    def test_reduction_session_is_adopted_not_rebuilt(self):
        session = ReasoningSession.from_database(demo_db())
        assert session is session.discovery.session
        fresh = ReasoningSession.from_database(demo_db(), max_nodes=99)
        assert fresh is not fresh.discovery.session
        assert fresh.max_nodes == 99
        unreduced = ReasoningSession.from_database(demo_db(), reduce=False)
        assert unreduced.discovery.session is None
