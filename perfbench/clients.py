"""Load generators: closed-loop HTTP and pipelined JSONL sockets.

Both keep the measured phase light on the client side: a request body is
a short JSON line or a cached inline-graph fragment, and responses are
kept as raw bytes and parsed only after the phase ends.  Every record carries
``sent`` and ``done`` (``time.perf_counter()``), the response bytes,
and the client-side outcome: ``ok``, ``timeout`` or ``error``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Per-request client timeout; a request past it counts as failed.
REQUEST_TIMEOUT_S = 60.0

_ID = re.compile(rb'"id": "([^"]*)"')


@dataclass
class Record:
    id: str
    sent: float
    meta: Optional[dict] = None
    done: float = 0.0
    body: bytes = b""
    outcome: str = "error"

    @property
    def latency(self) -> float:
        return self.done - self.sent


def http_detect(connection: http.client.HTTPConnection, body: bytes) -> bytes:
    """One ``POST /detect`` with a one-line JSONL body; the response body."""
    connection.request(
        "POST", "/detect", body=body, headers={"Content-Type": "application/jsonl"}
    )
    response = connection.getresponse()
    payload = response.read()
    if response.status != 200:
        raise http.client.HTTPException(f"HTTP {response.status}: {payload[:200]!r}")
    return payload


def closed_loop_http(
    address: Tuple[str, int],
    connections: int,
    next_request: Callable[[], Optional[Tuple[str, bytes, dict]]],
    seconds: float,
    min_samples: int,
    max_seconds: float,
) -> Tuple[List[Record], float, float]:
    """``connections`` keep-alive clients, each sending its next request
    as soon as the previous one is answered.

    Runs until ``seconds`` have passed *and* ``min_samples`` requests
    have been answered (never past ``max_seconds``), or ``next_request``
    runs dry.  Returns the records, the phase start, and the largest gap
    a client left between one response and its next send (the
    generator's own lag).
    """
    records: List[Record] = []
    lock = threading.Lock()
    started = time.perf_counter()
    lags = [0.0] * connections

    def enough() -> bool:
        now = time.perf_counter() - started
        if now >= max_seconds:
            return True
        return now >= seconds and len(records) >= min_samples

    def client(index: int) -> None:
        host, port = address
        connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            previous_done = None
            while not enough():
                with lock:
                    item = next_request()
                if item is None:
                    return
                request_id, body, meta = item
                record = Record(id=request_id, sent=time.perf_counter(), meta=meta)
                if previous_done is not None:
                    lags[index] = max(lags[index], record.sent - previous_done)
                try:
                    record.body = http_detect(connection, body)
                    record.outcome = "ok"
                except TimeoutError:
                    record.outcome = "timeout"
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        host, port, timeout=REQUEST_TIMEOUT_S
                    )
                record.done = previous_done = time.perf_counter()
                with lock:
                    records.append(record)
        finally:
            connection.close()

    threads = [threading.Thread(target=client, args=(i,)) for i in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, started, max(lags)


def closed_loop_socket(
    address: Tuple[str, int],
    connections: int,
    depth: int,
    next_request: Callable[[], Optional[Tuple[str, bytes, dict]]],
    seconds: float,
    min_samples: int,
    max_seconds: float,
) -> Tuple[List[Record], float, float]:
    """``connections`` JSONL socket clients, each keeping ``depth``
    requests pipelined: every response is answered with the next
    request.  All clients run in one asyncio thread; responses are
    matched by id.  Stops like :func:`closed_loop_http`; returns the
    same triple.
    """
    return asyncio.run(
        _closed_loop_socket(
            address, connections, depth, next_request, seconds, min_samples, max_seconds
        )
    )


async def _closed_loop_socket(
    address, connections, depth, next_request, seconds, min_samples, max_seconds
):
    records: List[Record] = []
    started = time.perf_counter()
    lag = 0.0

    def enough() -> bool:
        now = time.perf_counter() - started
        if now >= max_seconds:
            return True
        return now >= seconds and len(records) >= min_samples

    async def client() -> None:
        nonlocal lag
        reader, writer = await asyncio.open_connection(*address)
        pending: Dict[str, Record] = {}
        lost = "error"  # outcome of requests left unanswered

        async def send() -> None:
            item = next_request()
            if item is None:
                return
            request_id, body, meta = item
            record = Record(id=request_id, sent=time.perf_counter(), meta=meta)
            pending[request_id] = record
            writer.write(body)
            await writer.drain()

        try:
            for _ in range(depth):
                await send()
            while pending:
                line = await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT_S)
                if not line:
                    break
                now = time.perf_counter()
                match = _ID.search(line)
                record = pending.pop(match.group(1).decode(), None) if match else None
                if record is None:
                    continue
                record.done, record.body, record.outcome = now, line, "ok"
                records.append(record)
                if not enough():
                    await send()
                    lag = max(lag, time.perf_counter() - now)
        except asyncio.TimeoutError:
            lost = "timeout"
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass
            for record in pending.values():
                record.done = time.perf_counter()
                record.outcome = lost
                records.append(record)

    await asyncio.gather(*(client() for _ in range(connections)))
    return records, started, lag


def socket_exchange(address: Tuple[str, int], lines: Sequence[bytes]) -> List[dict]:
    """Send JSONL lines on one connection and read one response each."""

    async def exchange():
        reader, writer = await asyncio.open_connection(*address)
        try:
            for line in lines:
                writer.write(line)
            await writer.drain()
            responses = []
            for _ in lines:
                raw = await asyncio.wait_for(reader.readline(), REQUEST_TIMEOUT_S)
                responses.append(json.loads(raw))
            return responses
        finally:
            writer.close()
            await writer.wait_closed()

    return asyncio.run(exchange())
