"""The in-process workloads: ``discover_reduce`` and ``reason_engines``.

Both call the library's public surface (``repro.io``,
``repro.discovery.discover``, ``ReasoningSession``) in this process, one
pass after another for ``--seconds``, and check every pass's output.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Callable

import gen
from ledger import (
    LEDGER_MIN_WITHIN,
    LEDGER_TOLERANCE,
    ledger_error,
    percentile,
    self_times,
)
from repro.discovery import discover
from repro.engine.session import ReasoningSession
from repro.io import bundle_from_json
from calibrate import CHUNK_SECONDS, Calibration, Timings
from result import TAIL_PERCENTILE, Run, engine_metrics, peak_rss_mb
from spans import Recorder, current_trace

SETUP_LOADS = 25
"""Bundle loads per run; ``setup_s`` is their median."""


def _problem(run: Run, message: str) -> None:
    if message not in run.problems:
        run.problems.append(message)


def _write(work: str, name: str, text: str) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
    return path


def _load(paths: list[str], calibration: Calibration) -> tuple[list, Timings]:
    """Load every bundle via ``repro.io`` SETUP_LOADS times, with a
    calibration sample between loads; returns the last loads and the
    load timings."""
    setup = Timings()
    loaded: list = []
    before = calibration.sample()
    for _ in range(SETUP_LOADS):
        start = time.perf_counter()
        loaded = []
        for path in paths:
            with open(path, encoding="utf-8") as fp:
                loaded.append(bundle_from_json(fp.read()))
        took = time.perf_counter() - start
        after = calibration.sample()
        setup.add([took], took, 1, before, after)
        before = after
    return loaded, setup


def _passes(one_pass: Callable[[], Any], check: Callable[[Any], None],
            seconds: float, calibration: Calibration) -> Timings:
    """Run passes for ``seconds`` of pass time, in chunks of about
    ``CHUNK_SECONDS`` with a calibration sample between, checking each
    pass outside the timed region."""
    work = Timings()
    before = calibration.sample()
    while work.raw_elapsed < seconds:
        times: list[float] = []
        while sum(times) < CHUNK_SECONDS:
            begin = time.perf_counter()
            result = one_pass()
            times.append(time.perf_counter() - begin)
            check(result)
        after = calibration.sample()
        work.add(times, sum(times), len(times), before, after)
        before = after
    return work


def _finish(run: Run, setup: Timings, work: Timings,
            calibration: Calibration) -> None:
    run.gate(calibration, setup, work, peak_rss_mb(os.getpid()))
    run.report.update({
        "pass_p50_s": (percentile(work.raw, 50), "s"),
        "pass_p90_s": (percentile(work.raw, TAIL_PERCENTILE), "s"),
        "passes": (work.count, "count"),
        "failed_frac": (run.failed / run.attempted, "1"),
    })


# -- discover_reduce ------------------------------------------------------


def run_discover(work: str, seed: int, seconds: float, traced: bool,
                 calibration: Calibration) -> Run:
    text = gen.discover_bundle(seed)
    run = Run()
    run.report["inputs_digest"] = (gen.digest(text), "")
    [(schema, _deps, db)], setup = _load([_write(work, "db.json", text)],
                                         calibration)
    reference = discover(db)
    expected = [str(dep) for dep in reference.cover]
    for dep in reference.dependencies + reference.cover:
        if not db.satisfies(dep):
            run.problems.append(f"discovered {dep} does not hold in the data")
    run.report.update({
        "relations": (len(schema), "count"),
        "rows": (db.total_tuples(), "count"),
        "discovered": (len(reference.dependencies), "count"),
        "cover": (len(expected), "count"),
    })

    def check(report: Any) -> None:
        run.attempted += 1
        if [str(dep) for dep in report.cover] != expected:
            _problem(run, "a pass's cover differs from the reference run")

    if traced:
        _traced(run, lambda: discover(db), check, seconds, _discovery_layers,
                calibration)
        return run
    work = _passes(lambda: discover(db), check, seconds, calibration)
    _finish(run, setup, work, calibration)
    return run


def _discovery_layers(spans: list, report: Any,
                      totals: dict[str, float]) -> None:
    """Phase durations (inclusive) and IND miner counters of one pass."""
    inclusive: dict[str, float] = {}
    covers = []
    for _trace, name, start, end, _tag in spans:
        inclusive[name] = inclusive.get(name, 0.0) + end - start
        if name == "pipeline.cover":
            covers.append((start, end))
    questions = sum(
        1 for _t, name, start, end, _g in spans
        if name == "session.decide"
        and any(a <= start and end <= b for a, b in covers)
    )
    phases = [report.phases.get(p) for p in ("unary_ind", "nary_ind")]
    phases = [p for p in phases if p is not None]
    candidates = sum(p.candidates_generated for p in phases)
    add = {
        "fd_miner.s": inclusive.get("fd_miner", 0.0),
        "ind_miner.unary_s": inclusive.get("ind_miner.unary", 0.0),
        "ind_miner.nary_s": (inclusive.get("ind_miner", 0.0)
                             - inclusive.get("ind_miner.unary", 0.0)),
        "pipeline.cover_s": inclusive.get("pipeline.cover", 0.0),
        "pipeline.cover_questions": questions,
        "ind_miner.validated": sum(p.validated for p in phases),
        "ind_miner.pruned_ratio": (
            sum(p.pruned_by_implication for p in phases) / candidates
            if candidates else 0.0),
        "ind_miner.rows_scanned": sum(p.rows_scanned for p in phases),
    }
    for key, value in add.items():
        totals[key] = totals.get(key, 0.0) + value


# -- reason_engines -------------------------------------------------------


def run_engines(work: str, seed: int, seconds: float, traced: bool,
                calibration: Calibration) -> Run:
    bundles = gen.engine_bundles(seed)
    run = Run()
    run.report["inputs_digest"] = (gen.digest(*(
        text + "\0" + "\n".join(targets)
        for text, targets in bundles.values())), "")
    paths = [_write(work, f"{name}.json", text)
             for name, (text, _t) in bundles.items()]
    loaded, setup = _load(paths, calibration)
    classes = [
        (name, schema, deps, bundles[name][1])
        for name, (schema, deps, _db) in zip(bundles, loaded)
    ]

    def one_pass() -> list:
        verdicts = []
        for name, schema, deps, targets in classes:
            session = ReasoningSession(schema, deps)
            answers = session.implies_all(targets, degrade=True)
            if name == "unary":
                answers += session.implies_all(targets, "finite",
                                               degrade=True)
            verdicts.extend(answer.verdict for answer in answers)
        return verdicts

    reference = one_pass()
    _check_proofs(classes, reference, run.problems)
    run.report["targets"] = (len(reference), "count")

    def check(verdicts: list) -> None:
        run.attempted += len(verdicts)
        unknown = sum(1 for verdict in verdicts if verdict is None)
        run.failed += unknown
        if verdicts != reference:
            _problem(run, "the verdict vector differs between passes")

    if traced:
        _traced(run, one_pass, check, seconds, None, calibration)
        return run
    work = _passes(one_pass, check, seconds, calibration)
    _finish(run, setup, work, calibration)
    return run


def _check_proofs(classes: list, reference: list,
                  problems: list[str]) -> None:
    """Pure-class verdicts agree with ``ReasoningSession.prove``."""
    offset = 0
    for name, schema, deps, targets in classes:
        width = len(targets) * (2 if name == "unary" else 1)
        if name in ("ind", "fd"):
            session = ReasoningSession(schema, deps)
            proved = [session.prove(target).verdict for target in targets]
            if proved != reference[offset:offset + width]:
                problems.append(f"{name} verdicts disagree with prove()")
        offset += width


# -- the traced run -------------------------------------------------------


def _traced(run: Run, one_pass: Callable[[], Any],
            check: Callable[[Any], None], seconds: float,
            extra: Any, calibration: Calibration) -> None:
    """Half the time untraced, half with layer spans installed."""
    plain = _passes(one_pass, check, seconds / 2, calibration).raw
    recorder = Recorder()
    recorder.instrument_inprocess()
    totals: dict[str, float] = {}
    counters = {"reach_compiles": 0, "reach_compile_seconds": 0.0,
                "chase_rounds": 0, "chase_rows_scanned": 0}
    decides = within = passes = 0
    times = []
    deadline = time.perf_counter() + seconds / 2
    try:
        while time.perf_counter() < deadline or not times:
            passes += 1
            token = current_trace.set(f"p{passes}")
            begin = time.perf_counter()
            result = one_pass()
            end = time.perf_counter()
            current_trace.reset(token)
            times.append(end - begin)
            spans, recorder.spans[:] = list(recorder.spans), []
            for session in recorder.take_sessions():
                stats = session.stats()
                for key in counters:
                    counters[key] += stats.get(key, 0)
            check(result)
            layered = [("pass", begin, end)] + [
                (f"{name}:{tag}" if name == "session.decide" else name,
                 start, stop)
                for _t, name, start, stop, tag in spans
            ]
            selfs = self_times(layered)
            if ledger_error(selfs, 0.0, end - begin) <= LEDGER_TOLERANCE:
                within += 1
            for name, value in selfs.items():
                totals[name] = totals.get(name, 0.0) + value
            decides += sum(1 for s in spans if s[1] == "session.decide")
            if extra is not None:
                extra(spans, result, totals)
    finally:
        recorder.restore()

    def per_pass_us(*names: str) -> float:
        return sum(totals.get(name, 0.0) for name in names) / passes * 1e6

    decide_names = [n for n in totals if n.startswith("session.decide:")]
    metrics = run.metrics
    metrics.update(engine_metrics(totals, passes))
    metrics.update({
        "session.decide_us": (per_pass_us(*decide_names), "us"),
        "session.build_us": (per_pass_us("session.build"), "us"),
        "session.add_us": (per_pass_us("session.add"), "us"),
        "session.retract_us": (per_pass_us("session.retract"), "us"),
        "session.mutate_us": (
            per_pass_us("session.add", "session.retract"), "us"),
        "parser.parse_us": (per_pass_us("parser.parse"), "us"),
        "client.observed_us": (statistics.fmean(times) * 1e6, "us"),
        "ledger.within_tol_frac": (within / passes, "1"),
        "reach_index.compiles_per_1k_reads": (
            counters["reach_compiles"] / decides * 1000 if decides else 0.0,
            "count"),
        "reach_index.compile_us": (
            counters["reach_compile_seconds"] / counters["reach_compiles"]
            * 1e6 if counters["reach_compiles"] else 0.0, "us"),
        "chase.rounds": (counters["chase_rounds"] / passes, "count"),
        "chase.rows_scanned": (counters["chase_rows_scanned"] / passes,
                               "count"),
        "trace.overhead_frac": (
            statistics.median(times) / statistics.median(plain) - 1, "1"),
    })
    units = {"pipeline.cover_questions": "count",
             "ind_miner.validated": "count", "ind_miner.pruned_ratio": "1",
             "ind_miner.rows_scanned": "count"}
    for name in ("fd_miner.s", "ind_miner.unary_s", "ind_miner.nary_s",
                 "pipeline.cover_s", *units):
        if name in totals:
            metrics[name] = (totals[name] / passes, units.get(name, "s"))
    run.report["ledger_within_tolerance"] = (within / passes, "1")
    if within / passes < LEDGER_MIN_WITHIN:
        run.problems.append("traced passes do not sum to their wall time")
