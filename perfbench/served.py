"""The served workloads: ``serve_read`` and ``serve_mixed_durable``.

Each drives a ``repro serve`` subprocess over loopback HTTP from one
asyncio thread on at most :data:`CONNECTIONS` keep-alive connections,
and checks every answer against an in-process ``ReasoningSession``
oracle.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import gen
from calibrate import CHUNK_SECONDS, Calibration, Timings
from http_load import Connection
from ledger import (
    LEDGER_MIN_WITHIN,
    LEDGER_TOLERANCE,
    failed_frac,
    failures,
    ledger_error,
    percentile,
    self_times,
)
from repro.engine.session import ReasoningSession
from result import Run, engine_metrics, peak_rss_mb

HOST = "127.0.0.1"
TENANT = "T"
CONNECTIONS = 2
SETUP_SPAWNS = 9
"""Timed spawns per run; ``setup_s`` is their median."""
OFFERED_RATE = 1800
"""Requests per second offered in the paced phase of ``serve_read``."""
CLOSED_SHARE = 0.6
"""Share of ``--seconds`` ``serve_read`` spends closed-loop; the rest is paced."""
LATENESS_LIMIT_US = 1000.0
"""The paced phase is flagged when the generator's p99 lateness exceeds this."""
WRITE_EVERY = 10
"""``serve_mixed_durable``: each connection sends 9 reads, then 1 mutation."""
RETRY_EVERY = 7
"""Every 7th mutation of a connection is re-sent with the same key (odd,
so retries alternate between adds and retracts)."""
SPAWN_TIMEOUT = 60.0

IMPLIES_PATH = f"/tenants/{TENANT}/implies"
STATS_PATH = f"/tenants/{TENANT}/stats"


class RunFailure(Exception):
    """The run could not go on: a server failed to start or to answer."""


# -- the server process ---------------------------------------------------


class Server:
    """One ``repro serve`` subprocess on a free loopback port."""

    def __init__(self, proc: asyncio.subprocess.Process, port: int,
                 spawned_at: float, state_dir: Optional[str]):
        self.proc = proc
        self.port = port
        self.spawned_at = spawned_at
        self.state_dir = state_dir

    @classmethod
    async def spawn(cls, root: str, work: str, bundle: str,
                    state_dir: Optional[str] = None,
                    spans_out: Optional[str] = None,
                    cpu: Optional[int] = None) -> "Server":
        """Start a server; ``cpu`` pins it to one processor."""
        args = ["--host", HOST, "--port", "0", "--tenant", f"{TENANT}={bundle}"]
        if state_dir is not None:
            args += ["--state-dir", state_dir]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            launcher = os.path.join(os.path.dirname(__file__), "launcher.py")
            cmd = [sys.executable, launcher, spans_out, *args]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        with open(os.path.join(work, "server.log"), "ab") as log:
            spawned_at = time.perf_counter()
            proc = await asyncio.create_subprocess_exec(
                *cmd, cwd=root, env=env, stdout=asyncio.subprocess.PIPE,
                stderr=log,
            )
        if cpu is not None:
            os.sched_setaffinity(proc.pid, {cpu})
        try:
            port = await asyncio.wait_for(cls._port(proc), SPAWN_TIMEOUT)
        except BaseException:
            proc.kill()
            await proc.wait()
            raise
        return cls(proc, port, spawned_at, state_dir)

    @staticmethod
    async def _port(proc: asyncio.subprocess.Process) -> int:
        while True:
            line = await proc.stdout.readline()
            if not line:
                raise RunFailure("server exited before listening")
            text = line.decode()
            if "listening on" in text:
                return int(text.rsplit(":", 1)[1])

    async def shutdown(self) -> None:
        conn = await Connection.open(HOST, self.port)
        try:
            await conn.call("POST", "/shutdown")
        finally:
            await conn.close()
        await asyncio.wait_for(self.proc.wait(), SPAWN_TIMEOUT)

    async def kill(self) -> float:
        """SIGKILL; returns the time the signal was sent."""
        killed_at = time.perf_counter()
        self.proc.send_signal(signal.SIGKILL)
        await self.proc.wait()
        return killed_at


# -- the oracle -----------------------------------------------------------


class Oracle:
    """In-process verdicts for every premise state a run can reach.

    A state gives, per connection, the number of copies of its toggle
    IND among the premises (see :class:`History`).
    """

    def __init__(self, inputs: gen.ServeInputs):
        self.inputs = inputs
        self._states: dict[tuple, tuple[list, str]] = {}

    def state(self, counts: tuple[int, ...]) -> tuple[list, str]:
        """``(verdict per target, premise_hash)`` in state ``counts``."""
        if counts not in self._states:
            session = ReasoningSession(self.inputs.schema,
                                       self.inputs.premises)
            toggles = [self.inputs.toggles[c]
                       for c, copies in enumerate(counts)
                       for _ in range(copies)]
            if toggles:
                session.add(toggles)
            verdicts = [a.verdict for a in
                        session.implies_all(self.inputs.targets)]
            self._states[counts] = (verdicts, session.premise_hash)
        return self._states[counts]


# -- load -----------------------------------------------------------------


@dataclass
class Outcome:
    """One request as the client saw it."""

    kind: str  # "read", "write" or "retry"
    index: int  # target index (reads) or connection (writes)
    status: Optional[int]
    body: bytes
    sent: float
    received: float
    due: float = 0.0
    trace_id: Optional[str] = None
    request: bytes = b""
    """The request body of a write, for re-sending it with its key."""


@dataclass
class Plan:
    """The request sequence, shared by every connection of a phase."""

    inputs: gen.ServeInputs
    mixed: bool
    nonce: str
    cursor: int = 0
    turns: list[int] = field(default_factory=lambda: [0] * CONNECTIONS)
    writes: list[int] = field(default_factory=lambda: [0] * CONNECTIONS)
    traced: int = 0
    bodies: list[bytes] = field(default_factory=list)

    def __post_init__(self):
        self.bodies = [json.dumps({"target": t}).encode()
                       for t in self.inputs.targets]

    def write_turn(self, conn: int) -> bool:
        """Whether ``conn``'s next request is a mutation."""
        self.turns[conn] += 1
        return self.mixed and self.turns[conn] % WRITE_EVERY == 0

    def trace_id(self) -> str:
        self.traced += 1
        return f"r{self.traced}"

    def next_read(self) -> int:
        index = self.inputs.sequence[self.cursor % len(self.inputs.sequence)]
        self.cursor += 1
        return index

    def write(self, conn: int) -> tuple[str, bytes]:
        """The next keyed toggle of ``conn``: add on even turns."""
        n = self.writes[conn]
        self.writes[conn] += 1
        op = "add" if n % 2 == 0 else "retract"
        body = json.dumps({
            "dependencies": [self.inputs.toggles[conn]],
            "key": f"{self.nonce}-c{conn}-m{n}",
        }).encode()
        return f"/tenants/{TENANT}/{op}", body


@contextlib.contextmanager
def _client_gc_paused():
    """Keep the load generator's own collector out of timed phases."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


async def closed_loop(conns: list[Connection], plan: Plan, seconds: float,
                      traced: bool = False) -> tuple[list[Outcome], float]:
    """Every connection sends its next request as soon as the last one
    is answered; returns the outcomes and the elapsed time."""
    outcomes: list[Outcome] = []
    deadline = time.perf_counter() + seconds

    def trace_id() -> Optional[str]:
        return plan.trace_id() if traced else None

    async def worker(c: int, conn: Connection) -> None:
        while time.perf_counter() < deadline:
            if plan.write_turn(c):
                path, body = plan.write(c)
                tid = trace_id()
                status, raw, sent, received = await conn.request(
                    "POST", path, body, tid)
                outcomes.append(Outcome("write", c, status, raw, sent,
                                        received, trace_id=tid,
                                        request=body))
                if plan.writes[c] % RETRY_EVERY == 0:
                    tid = trace_id()
                    status, raw, sent, received = await conn.request(
                        "POST", path, body, tid)
                    outcomes.append(Outcome("retry", c, status, raw, sent,
                                            received, trace_id=tid))
                continue
            index = plan.next_read()
            tid = trace_id()
            status, raw, sent, received = await conn.request(
                "POST", IMPLIES_PATH, plan.bodies[index], tid)
            outcomes.append(Outcome("read", index, status, raw, sent,
                                    received, trace_id=tid))

    with _client_gc_paused():
        started = time.perf_counter()
        await asyncio.gather(*(worker(c, conn)
                               for c, conn in enumerate(conns)))
        elapsed = time.perf_counter() - started
    return outcomes, elapsed


async def paced_loop(conns: list[Connection], plan: Plan, seconds: float,
                     rate: float) -> tuple[list[Outcome], list[float]]:
    """Open loop: request ``i`` is due at ``start + i / rate`` whether or
    not earlier ones are answered.  Latency counts from the due time.
    Returns the outcomes and each request's lateness (release time minus
    due time) in seconds."""
    queue: asyncio.Queue = asyncio.Queue()
    total = int(rate * seconds)
    lateness: list[float] = []
    outcomes: list[Outcome] = []
    start = time.perf_counter() + 0.01

    async def generator() -> None:
        i = 0
        while i < total:
            now = time.perf_counter()
            due = start + i / rate
            if due > now:
                # Sleep coarsely, then yield until due: the loop's timer
                # rounds sleeps up to a millisecond.
                gap = due - now
                await asyncio.sleep(gap - 0.0015 if gap > 0.002 else 0)
                continue
            while i < total and start + i / rate <= now:
                due = start + i / rate
                lateness.append(now - due)
                queue.put_nowait(due)
                i += 1
        for _ in conns:
            queue.put_nowait(None)

    async def worker(conn: Connection) -> None:
        while True:
            due = await queue.get()
            if due is None:
                return
            index = plan.next_read()
            status, raw, sent, received = await conn.request(
                "POST", IMPLIES_PATH, plan.bodies[index])
            outcomes.append(Outcome("read", index, status, raw, sent,
                                    received, due=due))

    with _client_gc_paused():
        await asyncio.gather(generator(), *(worker(conn) for conn in conns))
    return outcomes, lateness


# -- checks ---------------------------------------------------------------


def _answer(outcome: Outcome) -> dict[str, Any]:
    return json.loads(outcome.body)


def check_reads(outcomes: list[Outcome], oracle: Oracle,
                history: "History", problems: list[str]) -> int:
    """Every read's verdict equals the oracle replayed to the answer's
    version.  Returns the number of degraded (``unknown``) answers,
    which count as failures, not mismatches."""
    degraded = mismatched = 0
    for outcome in outcomes:
        if outcome.kind != "read" or outcome.status != 200:
            continue
        answer = _answer(outcome)
        if answer.get("degraded") or answer.get("verdict") is None:
            degraded += 1
            continue
        verdicts, _hash = oracle.state(history.state_at(answer["version"]))
        if answer["verdict"] is not verdicts[outcome.index]:
            mismatched += 1
    if mismatched:
        problems.append(f"{mismatched} served verdicts differ from the oracle")
    return degraded


class History:
    """Applied mutations by version: the oracle's replay order.

    A state is a tuple holding, per connection, how many copies of its
    toggle IND are premises (a retry applied twice adds a second copy).
    """

    def __init__(self):
        self.by_version: dict[int, tuple[int, int]] = {}
        self.last_write: dict[int, Outcome] = {}
        self._states: list[tuple[int, ...]] = []

    def record(self, outcomes: list[Outcome], problems: list[str]) -> None:
        replayed_twice = 0
        for outcome in outcomes:
            if outcome.kind == "read" or outcome.status != 200:
                continue
            result = _answer(outcome)
            if outcome.kind == "retry" and result.get("idempotent_replay"):
                continue
            if outcome.kind == "retry":
                replayed_twice += 1
            version = result["version"]
            if version in self.by_version:
                problems.append(f"two mutations acked at version {version}")
            step = 1 if result["added"] else -1
            self.by_version[version] = (outcome.index, step)
            if outcome.kind == "write":
                self.last_write[outcome.index] = outcome
        if replayed_twice:
            problems.append(
                f"{replayed_twice} keyed retries were applied a second time")
        versions = sorted(self.by_version)
        if versions != list(range(1, len(versions) + 1)):
            problems.append("applied mutation versions have gaps")
        counts = [0] * CONNECTIONS
        self._states = [tuple(counts)]
        for version in versions:
            conn, step = self.by_version[version]
            counts[conn] += step
            self._states.append(tuple(counts))

    def state_at(self, version: int) -> tuple[int, ...]:
        if not self._states:
            return (0,) * CONNECTIONS
        return self._states[min(version, len(self._states) - 1)]

    def final_state(self) -> tuple[int, ...]:
        return self.state_at(len(self._states))


# -- phases ---------------------------------------------------------------


async def _open(server: Server) -> list[Connection]:
    return [await Connection.open(HOST, server.port)
            for _ in range(CONNECTIONS)]


async def _close(conns: list[Connection]) -> None:
    for conn in conns:
        await conn.close()


async def first_answer(server: Server, plan: Plan) -> float:
    """Seconds from spawn until the first implies answer arrives."""
    conn = await Connection.open(HOST, server.port)
    try:
        status, _raw, _sent, received = await conn.request(
            "POST", IMPLIES_PATH, plan.bodies[0])
    finally:
        await conn.close()
    if status != 200:
        raise RunFailure(f"first answer failed with status {status}")
    return received - server.spawned_at


async def warm(server: Server, plan: Plan) -> None:
    """Ask every target once, so the compiled working set is in place."""
    conn = await Connection.open(HOST, server.port)
    try:
        for body in plan.bodies:
            status, _raw, _s, _r = await conn.request(
                "POST", IMPLIES_PATH, body)
            if status != 200:
                raise RunFailure(f"warm-up read failed with status {status}")
    finally:
        await conn.close()


async def tenant_stats(server: Server) -> dict[str, Any]:
    conn = await Connection.open(HOST, server.port)
    try:
        return await conn.call("GET", STATS_PATH)
    finally:
        await conn.close()


def _latency_us(outcomes: list[Outcome], kind: str,
                paced: bool = False) -> list[float]:
    return [
        ((o.received - o.due) if paced else (o.received - o.sent)) * 1e6
        for o in outcomes if o.kind == kind and o.status == 200
    ]


@dataclass
class Launch:
    """How one run starts its servers, and every server it started."""

    root: str
    work: str
    bundle: str
    mixed: bool
    cpu: Optional[int]
    servers: list[Server] = field(default_factory=list)

    async def spawn(self, state_dir: Optional[str] = None,
                    spans_out: Optional[str] = None) -> Server:
        """A server over the run's bundle; a durable run gets a fresh
        state dir unless ``state_dir`` names one to recover from."""
        if state_dir is None and self.mixed:
            state_dir = os.path.join(self.work, f"state{len(self.servers)}")
        server = await Server.spawn(self.root, self.work, self.bundle,
                                    state_dir, spans_out, self.cpu)
        self.servers.append(server)
        return server

    async def stop_all(self) -> None:
        """Kill and reap any server still running."""
        for server in self.servers:
            if server.proc.returncode is None:
                await server.kill()


async def run_served(root: str, work: str, seed: int, seconds: float,
                     mixed: bool, traced: bool, server_cpu: Optional[int],
                     calibration: Calibration) -> Run:
    inputs = gen.serve_inputs(seed, CONNECTIONS)
    bundle = os.path.join(work, "bundle.json")
    with open(bundle, "w", encoding="utf-8") as fp:
        fp.write(inputs.bundle_text)
    launch = Launch(root, work, bundle, mixed, server_cpu)
    oracle = Oracle(inputs)
    oracle.state((0,) * CONNECTIONS)
    run = Run()
    run.report["inputs_digest"] = (inputs.digest(), "")
    try:
        if traced:
            await _traced(launch, inputs, oracle, seconds, run)
        else:
            await _measured(launch, inputs, oracle, seed, seconds, run,
                            calibration)
    finally:
        await launch.stop_all()
    return run


async def _measured(launch: Launch, inputs: gen.ServeInputs, oracle: Oracle,
                    seed: int, seconds: float, run: Run,
                    calibration: Calibration) -> None:
    """The untraced run: set-up, closed loop, then paced or crash."""
    mixed = launch.mixed

    # Set-up: one untimed warm-up spawn, then SETUP_SPAWNS timed ones;
    # the last stays up as the measured server.
    plan = Plan(inputs, mixed, nonce=f"s{seed}")
    setup = Timings()
    server = None
    before = calibration.sample()
    for attempt in range(SETUP_SPAWNS + 1):
        if server is not None:
            await server.shutdown()
        server = await launch.spawn()
        took = await first_answer(server, plan)
        after = calibration.sample()
        if attempt:
            setup.add([took], took, 1, before, after)
        before = after
    await warm(server, plan)

    history = History()
    conns = await _open(server)
    closed_seconds = seconds if mixed else seconds * CLOSED_SHARE
    outcomes: list[Outcome] = []
    work = Timings()
    before = calibration.sample()
    while work.raw_elapsed < closed_seconds:
        chunk, took = await closed_loop(
            conns, plan, min(CHUNK_SECONDS, closed_seconds - work.raw_elapsed))
        after = calibration.sample()
        work.add([o.received - o.sent for o in chunk if o.status == 200],
                 took, len(chunk), before, after)
        outcomes += chunk
        before = after
    paced: list[Outcome] = []
    lateness: list[float] = []
    if not mixed:
        paced, lateness = await paced_loop(
            conns, plan, seconds - closed_seconds, OFFERED_RATE)
    await _close(conns)
    peak_rss = peak_rss_mb(server.proc.pid)

    if mixed:
        history.record(outcomes, run.problems)
        killed_at = await server.kill()
        recovery = await _recover(launch, server.state_dir, plan, oracle,
                                  history, killed_at, run.problems)
        run.report["recovery_s"] = (recovery, "s")
    else:
        await server.shutdown()

    degraded = check_reads(outcomes + paced, oracle, history, run.problems)
    statuses = [o.status for o in outcomes + paced]
    run.attempted, run.failed = len(statuses), failures(statuses, degraded)
    run.gate(calibration, setup, work, peak_rss, per_chunk=True)
    reads = _latency_us(outcomes, "read")
    report = run.report
    report["read_p50_us"] = (percentile(reads, 50), "us")
    report["read_p99_us"] = (percentile(reads, 99), "us")
    report["reads"] = (len(reads), "count")
    if mixed:
        writes = _latency_us(outcomes, "write")
        report["write_p50_us"] = (percentile(writes, 50), "us")
        report["write_p99_us"] = (percentile(writes, 99), "us")
        report["writes"] = (len(writes), "count")
        report["flush_policy"] = ("fsync per acked mutation, snapshot every "
                                  "64 appends (server defaults)", "")
    else:
        paced_lat = _latency_us(paced, "read", paced=True)
        late_p99 = percentile(lateness, 99) * 1e6
        report["offered_rate"] = (OFFERED_RATE, "1/s")
        report["paced_p50_us"] = (percentile(paced_lat, 50), "us")
        report["paced_p99_us"] = (percentile(paced_lat, 99), "us")
        report["paced_late_p99_us"] = (late_p99, "us")
        report["paced_late_max_us"] = (max(lateness) * 1e6, "us")
        report["paced_flag"] = (
            "LATE" if late_p99 > LATENESS_LIMIT_US else "ok", "")
    report["failed_frac"] = (failed_frac(statuses, degraded), "1")


async def _recover(launch: Launch, state_dir: str, plan: Plan,
                   oracle: Oracle, history: History, stopped_at: float,
                   problems: list[str]) -> float:
    """Reboot from a stopped server's state dir; check what survived.

    Returns seconds from ``stopped_at`` to the first read answered
    after the reboot.
    """
    verdicts, premise_hash = oracle.state(history.final_state())
    rebooted = await launch.spawn(state_dir)
    conn = await Connection.open(HOST, rebooted.port)
    try:
        index = plan.inputs.sequence[0]
        status, raw, _sent, received = await conn.request(
            "POST", IMPLIES_PATH, plan.bodies[index])
        recovery = received - stopped_at
        if (status != 200
                or json.loads(raw).get("verdict") is not verdicts[index]):
            problems.append("the first read after recovery is wrong")
        stats = await conn.call("GET", STATS_PATH)
        if stats["premise_hash"] != premise_hash:
            problems.append("the recovered premise_hash differs from the "
                            "oracle's over all applied mutations")
        for outcome in history.last_write.values():
            op = "add" if _answer(outcome)["added"] else "retract"
            status, raw, _s, _r = await conn.request(
                "POST", f"/tenants/{TENANT}/{op}", outcome.request)
            if status != 200 or not json.loads(raw).get("idempotent_replay"):
                problems.append("a keyed retry after recovery was applied "
                                "again")
        stats = await conn.call("GET", STATS_PATH)
        if stats["premise_hash"] != premise_hash:
            problems.append("keyed retries after recovery changed premises")
    finally:
        await conn.close()
    await rebooted.shutdown()
    return recovery


# -- the traced run -------------------------------------------------------

SERVED_LAYERS = {
    "protocol.read": "protocol.read_us",
    "server.route": "server.route_us",
    "coalescer.wait": "coalescer.wait_us",
    "parser.parse": "parser.parse_us",
    "protocol.serialize": "protocol.serialize_us",
    "server.write": "server.write_us",
    "registry.mutate": "registry.mutate_us",
    "wal.append": "wal.append_us",
    "wal.snapshot": "wal.snapshot_us",
}
"""Span name -> per-layer metric; each is mean self time per request."""


async def _traced(launch: Launch, inputs: gen.ServeInputs, oracle: Oracle,
                  seconds: float, run: Run) -> None:
    """Half the time untraced, half through the span launcher, on the
    same inputs; the ratio of the two throughputs is the overhead."""
    half = seconds / 2
    mixed = launch.mixed
    spans_out = os.path.join(launch.work, "spans.json")
    phases = []
    for traced in (False, True):
        plan = Plan(inputs, mixed, nonce="t" if traced else "u")
        server = await launch.spawn(spans_out=spans_out if traced else None)
        await warm(server, plan)
        before = await tenant_stats(server)
        conns = await _open(server)
        outcomes, elapsed = await closed_loop(conns, plan, half, traced)
        await _close(conns)
        after = await tenant_stats(server)
        await server.shutdown()
        history = History()
        if mixed:
            history.record(outcomes, run.problems)
            await _recover(launch, server.state_dir, plan, oracle, history,
                           time.perf_counter(), run.problems)
        degraded = check_reads(outcomes, oracle, history, run.problems)
        run.attempted += len(outcomes)
        run.failed += failures([o.status for o in outcomes], degraded)
        phases.append((outcomes, elapsed, before, after))
    (plain, plain_elapsed, _b, _a), (outcomes, elapsed, before, after) = phases
    with open(spans_out, encoding="utf-8") as fp:
        dump = json.load(fp)
    metrics = analyse_served(dump, outcomes, before, after)
    metrics["trace.overhead_frac"] = (
        1 - (len(outcomes) / elapsed) / (len(plain) / plain_elapsed), "1")
    run.metrics.update(metrics)
    run.report["ledger_within_tolerance"] = (
        metrics["ledger.within_tol_frac"][0], "1")
    if metrics["ledger.within_tol_frac"][0] < LEDGER_MIN_WITHIN:
        run.problems.append(
            f"only {metrics['ledger.within_tol_frac'][0]:.3f} of traced "
            f"requests sum to their client-observed time within "
            f"{LEDGER_TOLERANCE:.0%}")


def analyse_served(dump: dict[str, Any], outcomes: list[Outcome],
                   before: dict[str, Any],
                   after: dict[str, Any]) -> dict[str, tuple[float, str]]:
    """Per-request ledger of one traced phase.

    A request's server interval runs from its request line's arrival to
    the server's next read on that connection.  It is tiled by
    ``protocol.read``, ``server.route`` (up to serialization),
    ``protocol.serialize`` and ``server.write``, with every other span
    of the request nested inside; the client-observed time minus that
    interval is ``client.wire``.
    """
    by_trace: dict[str, list] = {}
    for trace, name, start, end, tag in dump["spans"]:
        if trace:
            by_trace.setdefault(trace, []).append((name, start, end, tag))
    totals: dict[str, float] = {}
    idle = wire_total = observed_total = 0.0
    requests = within = fsyncs = appends = 0
    for outcome in outcomes:
        if outcome.trace_id is None or outcome.status != 200:
            continue
        spans = by_trace.get(outcome.trace_id, [])
        tiles = {name: (start, end) for name, start, end, _t in spans
                 if name in ("protocol.read", "protocol.serialize",
                             "server.write")}
        if len(tiles) != 3:
            raise RunFailure(f"request {outcome.trace_id} lacks a "
                             f"read, serialize or write span")
        arrived, returned = tiles["protocol.read"]
        serialized = tiles["protocol.serialize"][0]
        written = tiles["server.write"][1]
        layer_spans = [("server.request", arrived, written),
                       ("server.route", returned, serialized)]
        for name, start, end, tag in spans:
            if name == "protocol.idle":
                idle += end - start
            elif name == "os.fsync":
                fsyncs += 1
            else:
                if name == "wal.append":
                    appends += 1
                if name == "session.decide":
                    name = f"session.decide:{tag}"
                layer_spans.append((name, start, end))
        selfs = self_times(layer_spans)
        observed = outcome.received - outcome.sent
        wire = observed - (written - arrived)
        if (ledger_error(selfs, wire, observed) <= LEDGER_TOLERANCE
                and wire >= -LEDGER_TOLERANCE * observed):
            within += 1
        for name, value in selfs.items():
            totals[name] = totals.get(name, 0.0) + value
        wire_total += wire
        observed_total += observed
        requests += 1
    if not requests:
        raise RunFailure("no traced request to analyse")

    def per_request_us(*names: str) -> float:
        return sum(totals.get(name, 0.0) for name in names) / requests * 1e6

    metrics = {metric: (per_request_us(name), "us")
               for name, metric in SERVED_LAYERS.items()}
    decides = [name for name in totals if name.startswith("session.decide:")]
    metrics["session.decide_us"] = (per_request_us(*decides), "us")
    metrics.update(engine_metrics(totals, requests))
    metrics["session.add_us"] = (per_request_us("session.add"), "us")
    metrics["session.retract_us"] = (per_request_us("session.retract"), "us")
    metrics["session.mutate_us"] = (
        per_request_us("session.add", "session.retract"), "us")
    metrics["protocol.idle_us"] = (idle / requests * 1e6, "us")
    metrics["client.wire_us"] = (wire_total / requests * 1e6, "us")
    metrics["client.observed_us"] = (observed_total / requests * 1e6, "us")
    metrics["ledger.within_tol_frac"] = (within / requests, "1")

    def delta(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (a or 0) - (b or 0)

    served = delta("coalescer", "requests")
    batches = delta("coalescer", "batches")
    reads = sum(1 for o in outcomes if o.kind == "read")
    compiles = delta("reach_compiles")
    metrics["coalescer.batch_size"] = (served / batches if batches else 0.0,
                                       "count")
    metrics["coalescer.dedup_ratio"] = (
        delta("coalescer", "unique_decides") / served if served else 0.0, "1")
    metrics["reach_index.compiles_per_1k_reads"] = (
        compiles / reads * 1000 if reads else 0.0, "count")
    metrics["reach_index.compile_us"] = (
        delta("reach_compile_seconds") / compiles * 1e6 if compiles else 0.0,
        "us")
    metrics["wal.fsyncs_per_write"] = (fsyncs / appends if appends else 0.0,
                                       "count")
    metrics["wal.bytes_per_write"] = (
        dump["wal_bytes"] / appends if appends else 0.0, "B")
    metrics["wal.snapshots"] = (delta("wal", "snapshots"), "count")
    metrics["chase.rounds"] = (delta("chase_rounds"), "count")
    metrics["chase.rows_scanned"] = (delta("chase_rows_scanned"), "count")
    return metrics

