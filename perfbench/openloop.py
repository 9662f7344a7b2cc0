"""Open-loop HTTP/1.1 load generator.

Requests are sent on a fixed schedule whether or not earlier ones were
answered, over two keep-alive connections with pipelining, and each
request's latency runs from the time it was *due* to the time its
response arrived. A server stall therefore shows in every request that
came due during it, not only in the one that hit it; and if the
generator itself falls behind, the lateness is in the latency and is
reported separately (``lag_s``).
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Keep-alive connections per step: one per core of the 2-core host the
#: workload was sized on.
CONNECTIONS = 2


@dataclass(frozen=True)
class Request:
    """One scheduled request: due ``offset_s`` after the step starts."""

    offset_s: float
    method: str
    target: str
    body: Optional[Dict[str, Any]] = None
    #: Status codes that count as an answer to this request.
    expect: Tuple[int, ...] = (200,)

    def encode(self) -> bytes:
        payload = b"" if self.body is None else json.dumps(self.body).encode()
        head = (
            f"{self.method} {self.target} HTTP/1.1\r\n"
            f"Host: bench\r\nContent-Length: {len(payload)}\r\n\r\n"
        )
        return head.encode() + payload


@dataclass
class Result:
    request: Request
    due: float
    sent: float = 0.0
    done: Optional[float] = None
    status: Optional[int] = None
    body: Any = None
    error: Optional[str] = None

    @property
    def latency_s(self) -> Optional[float]:
        return None if self.done is None else self.done - self.due


@dataclass
class StepRun:
    results: List[Result] = field(default_factory=list)
    #: Generator lateness per request: send time minus due time.
    lag_s: List[float] = field(default_factory=list)
    start: float = 0.0
    #: When the generator stopped waiting for answers.
    end: float = 0.0


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Any]:
    status_line = await reader.readuntil(b"\r\n")
    status = int(status_line.split(b" ", 2)[1])
    length = 0
    while True:
        line = await reader.readuntil(b"\r\n")
        if line == b"\r\n":
            break
        key, _, value = line.decode("latin-1").partition(":")
        if key.strip().lower() == "content-length":
            length = int(value.strip())
    raw = await reader.readexactly(length) if length else b""
    return status, json.loads(raw) if raw else None


async def run_step(host: str, port: int, requests: List[Request],
                   drain_s: float = 5.0) -> StepRun:
    """Send ``requests`` on schedule; wait up to ``drain_s`` after the
    last one is due for the stragglers (unanswered ones get an error)."""
    loop = asyncio.get_running_loop()
    conns = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    inflight: List[Deque[Result]] = [deque() for _ in conns]
    run = StepRun()

    async def receive(i: int) -> None:
        reader = conns[i][0]
        queue = inflight[i]
        while True:
            try:
                status, body = await _read_response(reader)
            except (asyncio.IncompleteReadError, ConnectionError) as exc:
                for res in queue:
                    res.error = f"connection lost: {exc!r}"
                queue.clear()
                return
            now = time.perf_counter()
            res = queue.popleft()
            res.done, res.status, res.body = now, status, body

    readers = [loop.create_task(receive(i)) for i in range(len(conns))]
    run.start = time.perf_counter()
    try:
        for k, req in enumerate(requests):
            due = run.start + req.offset_s
            # Yield even when behind schedule, so the readers keep
            # timestamping responses as they arrive.
            await asyncio.sleep(max(0.0, due - time.perf_counter()))
            res = Result(request=req, due=due)
            i = k % len(conns)
            writer = conns[i][1]
            res.sent = time.perf_counter()
            run.lag_s.append(res.sent - due)
            inflight[i].append(res)
            run.results.append(res)
            writer.write(req.encode())
            if writer.transport.get_write_buffer_size() > 1 << 16:
                await writer.drain()
        deadline = (run.start + (requests[-1].offset_s if requests else 0.0)
                    + drain_s)
        while any(inflight) and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        run.end = time.perf_counter()
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        for _reader, writer in conns:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass
    for queue in inflight:
        for res in queue:
            res.error = res.error or "timed out"
    return run


def failure(res: Result) -> Optional[str]:
    """Why a request failed, or None for a correct answer.

    An answer carries the API envelope: a JSON object, and for an error
    status a ``{"error": {"code", "message"}}`` body. A transport error,
    a timeout, a 5xx, or a status the generator did not expect for a
    request it built as valid is a failure.
    """
    if res.error is not None:
        return res.error
    req = res.request
    if res.status not in req.expect:
        return f"status {res.status} for {req.method} {req.target}"
    if not isinstance(res.body, dict):
        return f"non-object body for {req.method} {req.target}"
    if res.status >= 400:
        err = res.body.get("error")
        if not (isinstance(err, dict) and "code" in err and "message" in err) \
                and "decision" not in res.body:
            return f"no error envelope on {res.status} for {req.target}"
    if req.target == "/v1/batch":
        for sub in res.body.get("results", []):
            if sub.get("status") != 200:
                return f"batch sub-request answered {sub.get('status')}"
    return None
