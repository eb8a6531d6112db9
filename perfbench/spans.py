"""Spans around the program's layer entry points, for traced runs.

A :class:`Recorder` wraps public layer functions *where their caller
looks them up* (the module global or class attribute the caller
reads), so the program runs unmodified and untraced runs pay nothing.
Spans are kept in memory as ``(trace_id, name, start, end, tag)``
tuples on the system monotonic clock and written out when the run
ends.  The trace id is the client's ``X-Trace-Id``, carried in a
context variable from the request read to everything the request's
task (or a coalescer flush it scheduled) calls.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from typing import Any, Callable

from repro.discovery import ind_miner, pipeline
from repro.engine import session as session_module
from repro.engine.session import ReasoningSession

current_trace: contextvars.ContextVar[str] = contextvars.ContextVar(
    "perfbench_trace", default=""
)
_connection: contextvars.ContextVar[dict] = contextvars.ContextVar(
    "perfbench_connection"
)

Record = tuple[str, str, float, float, str]


class Recorder:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.spans: list[Record] = []
        self.wal_bytes = 0
        self.sessions: list[ReasoningSession] = []
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, attr: str,
               factory: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(factory(original)))

    def restore(self) -> None:
        """Put every wrapped name back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _timed(self, owner: Any, attr: str, name: str) -> None:
        record = self.spans.append
        clock = time.perf_counter

        def factory(original):
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    record((current_trace.get(), name, start, clock(), ""))
            return wrapper

        self._patch(owner, attr, factory)

    def _decide(self) -> None:
        """``ReasoningSession.implies``, tagged with the engine used."""
        record = self.spans.append
        clock = time.perf_counter

        def factory(original):
            def wrapper(*args, **kwargs):
                start = clock()
                engine = "error"
                try:
                    answer = original(*args, **kwargs)
                    engine = answer.engine.value
                    return answer
                finally:
                    record((current_trace.get(), "session.decide", start,
                            clock(), engine))
            return wrapper

        self._patch(ReasoningSession, "implies", factory)

    def _session_layers(self) -> None:
        self._decide()
        self._timed(ReasoningSession, "add", "session.add")
        self._timed(ReasoningSession, "retract", "session.retract")
        self._timed(session_module, "parse_dependency", "parser.parse")

    # -- in-process workloads -------------------------------------------

    def instrument_inprocess(self) -> None:
        """Discovery phases, session construction and the engines."""
        self._session_layers()
        self._timed(pipeline, "discover_fds", "fd_miner")
        self._timed(pipeline, "discover_inds", "ind_miner")
        self._timed(ind_miner, "discover_unary_inds", "ind_miner.unary")
        self._timed(pipeline, "minimal_cover", "pipeline.cover")
        sessions = self.sessions
        record = self.spans.append
        clock = time.perf_counter

        def build(original):
            def wrapper(session, *args, **kwargs):
                start = clock()
                try:
                    return original(session, *args, **kwargs)
                finally:
                    record((current_trace.get(), "session.build", start,
                            clock(), ""))
                    sessions.append(session)
            return wrapper

        self._patch(ReasoningSession, "__init__", build)

    def take_sessions(self) -> list[ReasoningSession]:
        """Sessions built since the last call (for their counters)."""
        taken, self.sessions[:] = list(self.sessions), []
        return taken

    # -- the server process ---------------------------------------------

    def instrument_server(self) -> None:
        """The wire, routing, coalescing, registry and WAL layers."""
        from repro.serve import coalescer, registry, server, wal

        self._session_layers()
        self._timed(registry.Tenant, "mutate", "registry.mutate")
        self._timed(wal.TenantStore, "write_snapshot", "wal.snapshot")
        record = self.spans.append
        clock = time.perf_counter
        recorder = self

        def read_request(original):
            async def wrapper(reader, on_started=None):
                called = clock()
                state = _connection.get(None)
                if state is None:
                    state = {}
                    _connection.set(state)
                elif "serialized" in state:
                    # The previous response's write phase ends here.
                    record((state["trace"], "server.write",
                            state.pop("serialized"), called, ""))
                request = await original(reader, on_started)
                returned = clock()
                if request is not None:
                    trace = request.trace_id
                    current_trace.set(trace)
                    arrived = returned - request.parse_seconds
                    record((trace, "protocol.idle", called, arrived, ""))
                    record((trace, "protocol.read", arrived, returned, ""))
                return request
            return wrapper

        def json_response(original):
            def wrapper(*args, **kwargs):
                start = clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    end = clock()
                    trace = current_trace.get()
                    record((trace, "protocol.serialize", start, end, ""))
                    state = _connection.get(None)
                    if state is not None:
                        state["serialized"] = end
                        state["trace"] = trace
            return wrapper

        def submit(original):
            def wrapper(*args, **kwargs):
                trace = current_trace.get()
                submitted = clock()
                future = original(*args, **kwargs)
                future.add_done_callback(
                    lambda _f: record((trace, "coalescer.wait", submitted,
                                       clock(), ""))
                )
                return future
            return wrapper

        def append(original):
            def wrapper(*args, **kwargs):
                start = clock()
                stored = original(*args, **kwargs)
                record((current_trace.get(), "wal.append", start, clock(), ""))
                recorder.wal_bytes += len(
                    json.dumps(stored, separators=(",", ":"))
                ) + 1
                return stored
            return wrapper

        def fsync(original):
            def wrapper(fd):
                start = clock()
                try:
                    return original(fd)
                finally:
                    record((current_trace.get(), "os.fsync", start, clock(),
                            ""))
            return wrapper

        self._patch(server, "read_request", read_request)
        self._patch(server, "json_response", json_response)
        self._patch(coalescer.Coalescer, "submit", submit)
        self._patch(wal.TenantStore, "append", append)
        self._patch(os, "fsync", fsync)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {"spans": self.spans, "wal_bytes": self.wal_bytes},
                fp,
            )
