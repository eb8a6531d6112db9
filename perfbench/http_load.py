"""A minimal keep-alive HTTP/1.1 client on asyncio streams.

One process, one thread, one event loop: every connection of a run is
a coroutine on the same loop, so the load generator never competes with
itself for the interpreter lock.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Any, Optional


class Connection:
    """One keep-alive connection to a ``repro serve`` process."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def request(
        self,
        method: str,
        path: str,
        body: bytes = b"",
        trace_id: Optional[str] = None,
    ) -> tuple[Optional[int], bytes, float, float]:
        """Send one request; ``(status, body, sent_at, received_at)``.

        A transport error gives status ``None``; the caller counts it as
        a failure.  Times are ``time.perf_counter()`` readings, which
        share the system monotonic clock with the server process.
        """
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        if trace_id is not None:
            head += f"X-Trace-Id: {trace_id}\r\n"
        sent_at = time.perf_counter()
        try:
            self.writer.write(head.encode("latin-1") + b"\r\n" + body)
            raw = await self.reader.readuntil(b"\r\n\r\n")
            lines = raw.decode("latin-1").split("\r\n")
            status = int(lines[0].split(" ", 2)[1])
            length = 0
            for line in lines[1:]:
                name, _, value = line.partition(":")
                if name.lower() == "content-length":
                    length = int(value)
            payload = await self.reader.readexactly(length) if length else b""
        except (OSError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError, ValueError, IndexError):
            return None, b"", sent_at, time.perf_counter()
        return status, payload, sent_at, time.perf_counter()

    async def call(self, method: str, path: str,
                   payload: Optional[dict[str, Any]] = None) -> dict:
        """One JSON request that must succeed; returns the decoded body."""
        body = json.dumps(payload).encode() if payload is not None else b""
        status, raw, _sent, _received = await self.request(method, path, body)
        if status != 200:
            raise RuntimeError(f"{method} {path} -> {status}: {raw[:200]!r}")
        return json.loads(raw)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
