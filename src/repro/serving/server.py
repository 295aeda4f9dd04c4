"""The socket front-end: an asyncio TCP server over the ServingQueue.

:class:`~repro.serving.ServingService` is deliberately socket-free;
this module is the one adapter the PR-4 design note promised.  It
speaks exactly the service's JSONL schema — one JSON request per line
in, one JSON response per line out, responses in per-client request
order — by reusing the service's parse (:meth:`ServingService.parse_line`)
and response-rendering (:meth:`ServingService.render_response`)
helpers, so a cover served over a socket is byte-identical to one
served from a batch file, which is byte-identical to a direct
``GraphSession.detect``.

On top of the shared queue it adds the two semantics remote traffic
needs and a batch stream does not:

**Per-client fairness.**  All connections feed one bounded
:class:`~repro.serving.ServingQueue`, but admission is round-robin
across connected clients: a single admission coroutine cycles over the
clients that have parsed-but-unsubmitted requests and admits one at a
time, so a client streaming thousands of requests interleaves 1:1 with
a client sending two — it cannot starve them.  Each client is further
bounded by ``max_inflight_per_client``: requests beyond that many
outstanding (admitted or awaiting admission) are refused immediately
with ``{"ok": false, "error": "queue full"}``, the per-client face of
:class:`~repro.errors.QueueFull` backpressure.

**Request deadlines.**  A request carrying ``deadline_seconds`` that is
still queued when its budget elapses is shed by the queue worker with
:class:`~repro.errors.DeadlineExceeded` — the client gets its
``ok: false`` response and the detect nobody is waiting for never runs.

Blocking work (request parsing, which may read a graph file, and
queue-space waits) runs in the event loop's default executor, never on
the loop itself; results cross back via :func:`asyncio.wrap_future`.

Usage::

    server = ServingServer(host="127.0.0.1", port=0, max_sessions=4)
    await server.start()
    ...                      # clients connect to server.host:server.port
    await server.stop()      # quiesce: flush in-flight responses
    server.close()           # close the owned service (queue + manager)

or synchronously (tests, benchmarks, the CLI smoke)::

    with start_server_thread(max_sessions=4) as handle:
        sock = socket.create_connection((handle.host, handle.port))
        ...
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import deque
from concurrent.futures import CancelledError
from typing import Any, Dict, Optional, Set

from ..errors import ConfigurationError, DeadlineExceeded, QueueFull, ServingError
from ..observability import NULL_EVENT_LOG, MetricsRegistry
from .service import ServingService, error_response

__all__ = ["ServerStats", "ServingServer", "ServerHandle", "start_server_thread"]

#: The exact error string a per-client cap refusal carries — the
#: documented response vocabulary, asserted by tests.
QUEUE_FULL_ERROR = "queue full"


class _ServerMetrics:
    """The socket front-end's registry instruments."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.clients_total = registry.counter(
            "repro_server_clients_total", "Connections accepted"
        )
        self.clients_active = registry.gauge(
            "repro_server_clients_active", "Connections currently open"
        )
        self.requests = registry.counter(
            "repro_server_requests_total", "Request lines parsed"
        )
        responses = registry.counter(
            "repro_server_responses_total",
            "Response lines rendered, by outcome",
            labelnames=("status",),
        )
        self.responses_ok = responses.labels(status="ok")
        self.responses_error = responses.labels(status="error")
        self.queue_full_rejections = registry.counter(
            "repro_server_queue_full_rejections_total",
            "Per-client in-flight-cap (or shared-queue) refusals",
        )
        self.deadline_expired = registry.counter(
            "repro_server_deadline_expired_total",
            "Requests shed past their deadline (admission or queue stage)",
        )
        self.oversized_drops = registry.counter(
            "repro_server_oversized_drops_total",
            "Connections dropped for exceeding max_line_bytes",
        )


class ServerStats:
    """Aggregate accounting of one socket server's traffic.

    ``requests`` counts parsed request lines, ``responses`` the lines
    written back (``ok`` + ``failed``).  ``queue_full_rejections`` are
    per-client in-flight-cap refusals; ``deadline_expired`` are requests
    shed past their deadline (at admission or in the queue) — both are
    subsets of ``failed``.  ``oversized_drops`` counts connections cut
    for exceeding ``max_line_bytes``.

    A read-only view over the server's registry instruments: same
    attribute names as the pre-observability dataclass, same numbers,
    but the registry is the single source of truth (``GET /metrics``
    renders these exact series as ``repro_server_*``).
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: _ServerMetrics) -> None:
        self._metrics = metrics

    @property
    def clients_total(self) -> int:
        return int(self._metrics.clients_total.value)

    @property
    def clients_active(self) -> int:
        return int(self._metrics.clients_active.value)

    @property
    def requests(self) -> int:
        return int(self._metrics.requests.value)

    @property
    def ok(self) -> int:
        return int(self._metrics.responses_ok.value)

    @property
    def failed(self) -> int:
        return int(self._metrics.responses_error.value)

    @property
    def responses(self) -> int:
        return self.ok + self.failed

    @property
    def queue_full_rejections(self) -> int:
        return int(self._metrics.queue_full_rejections.value)

    @property
    def deadline_expired(self) -> int:
        return int(self._metrics.deadline_expired.value)

    @property
    def oversized_drops(self) -> int:
        return int(self._metrics.oversized_drops.value)

    def __repr__(self) -> str:
        return (
            "ServerStats("
            f"clients_total={self.clients_total}, "
            f"clients_active={self.clients_active}, "
            f"requests={self.requests}, responses={self.responses}, "
            f"ok={self.ok}, failed={self.failed}, "
            f"queue_full_rejections={self.queue_full_rejections}, "
            f"deadline_expired={self.deadline_expired}, "
            f"oversized_drops={self.oversized_drops})"
        )


class _Slot:
    """One request's reserved response position in its client's stream.

    Responses must leave in per-client request order, but admission is
    round-robin across clients — so the order-preserving slot is
    created at parse time and *filled* later: either immediately with a
    ready error response, or at admission with the queue-pending record.
    """

    __slots__ = ("request", "response", "pending", "ready", "admitted")

    def __init__(self, request: Any = None) -> None:
        self.request = request
        self.response: Optional[Dict[str, Any]] = None
        self.pending: Any = None
        self.ready = asyncio.Event()
        self.admitted = False

    def resolve_error(self, response: Dict[str, Any]) -> None:
        self.response = response
        self.ready.set()

    def resolve_pending(self, pending: Any) -> None:
        self.pending = pending
        self.ready.set()


class _Client:
    """Per-connection state: the response pipeline and fairness books."""

    __slots__ = (
        "name",
        "writer",
        "slots",
        "admission",
        "outstanding",
        "eof",
        "broken",
        "wake",
        "slots_free",
    )

    def __init__(self, name: str, writer: asyncio.StreamWriter) -> None:
        self.name = name
        self.writer = writer
        #: Every accepted line, in order — the response pipeline.
        self.slots: "deque[_Slot]" = deque()
        #: The parsed-but-unsubmitted subset the admission loop drains.
        self.admission: "deque[_Slot]" = deque()
        #: Requests accepted but not yet answered (the in-flight cap).
        self.outstanding = 0
        self.eof = False
        #: The transport failed mid-write: keep accounting, stop writing.
        self.broken = False
        self.wake = asyncio.Event()
        #: Set by the writer whenever it retires a slot — the reader's
        #: flow-control signal when the response buffer is at its bound.
        self.slots_free = asyncio.Event()


class ServingServer:
    """An asyncio TCP server feeding one :class:`ServingService`.

    Parameters
    ----------
    service:
        An existing service to serve from (its queue, manager, and
        graph cache are shared with any batch-mode use), or ``None`` to
        own a fresh one built from ``**service_kwargs``.
    host / port:
        Bind address; port 0 picks a free port, readable from
        :attr:`port` after :meth:`start`.
    max_inflight_per_client:
        Per-client bound on outstanding requests; lines beyond it are
        answered ``{"ok": false, "error": "queue full"}`` immediately.
    submit_timeout_seconds:
        Bound on one admission's wait for shared-queue space (``None``:
        wait as long as it takes; fairness is unaffected either way
        because admission is one request at a time).
    max_line_bytes:
        Stream-reader line limit (default 16 MiB — inline edge lists
        are big).  A client exceeding it has its connection dropped
        after the buffered responses flush; the server keeps serving
        everyone else.
    stop_grace_seconds:
        How long :meth:`stop` waits for connections to flush before
        aborting their transports (a client that stopped reading its
        responses would otherwise stall shutdown forever).

    A client that sends without reading cannot balloon the server:
    once ``max(16, 2 * max_inflight_per_client)`` responses are
    buffered for a connection, its reader stops consuming lines until
    the writer retires some — TCP backpressure does the rest.
    """

    def __init__(
        self,
        service: Optional[ServingService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight_per_client: int = 8,
        submit_timeout_seconds: Optional[float] = None,
        max_line_bytes: int = 16 * 1024 * 1024,
        stop_grace_seconds: float = 5.0,
        **service_kwargs: Any,
    ) -> None:
        if max_inflight_per_client < 1:
            raise ConfigurationError(
                "max_inflight_per_client must be >= 1, got "
                f"{max_inflight_per_client}"
            )
        if max_line_bytes < 1:
            raise ConfigurationError(
                f"max_line_bytes must be >= 1, got {max_line_bytes}"
            )
        self._owns_service = service is None
        self.service = service if service is not None else ServingService(
            **service_kwargs
        )
        self._bind_host = host
        self._bind_port = port
        self.max_inflight_per_client = max_inflight_per_client
        self.submit_timeout_seconds = submit_timeout_seconds
        self.max_line_bytes = max_line_bytes
        self.stop_grace_seconds = stop_grace_seconds
        self.max_buffered_responses = max(16, 2 * max_inflight_per_client)
        self._metrics = _ServerMetrics(self.service.registry)
        self.stats = ServerStats(self._metrics)
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: "deque[_Client]" = deque()  # round-robin order
        self._handler_tasks: "Set[asyncio.Task]" = set()
        self._admission_task: Optional[asyncio.Task] = None
        self._admission_wake: Optional[asyncio.Event] = None
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._client_serial = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound host (valid after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[0]
        return self._bind_host

    @property
    def port(self) -> int:
        """The bound port (valid after :meth:`start`)."""
        if self._server is not None and self._server.sockets:
            return self._server.sockets[0].getsockname()[1]
        return self._bind_port

    async def start(self) -> None:
        """Bind the listener and start the admission loop."""
        if self._server is not None:
            raise ServingError("ServingServer is already started")
        self._admission_wake = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self._bind_host,
            port=self._bind_port,
            limit=self.max_line_bytes,
        )
        self._admission_task = asyncio.ensure_future(self._admission_loop())
        self._events().emit(
            "server_start", front_end="socket", host=self.host, port=self.port
        )

    async def wait_stopped(self) -> None:
        """Block until :meth:`stop` has completed (the serve loop)."""
        if self._stopped is None:
            raise ServingError("ServingServer was never started")
        await self._stopped.wait()

    async def stop(self) -> None:
        """Quiesce: stop accepting, flush every in-flight response.

        Idempotent.  Submitted requests complete and their responses
        are written before connections close; the underlying service
        (queue + manager) stays open — :meth:`close` owns that.
        """
        if self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            _done, still_running = await asyncio.wait(
                list(self._handler_tasks), timeout=self.stop_grace_seconds
            )
            if still_running:
                # A connection that will not flush (its client stopped
                # reading) must not stall shutdown: abort the transport
                # so the blocked drain fails and accounting completes.
                for client in list(self._clients):
                    transport = client.writer.transport
                    if transport is not None:
                        transport.abort()
                await asyncio.gather(*still_running, return_exceptions=True)
        if self._admission_wake is not None:
            self._admission_wake.set()
        if self._admission_task is not None:
            await self._admission_task
        self._events().emit(
            "server_stop", front_end="socket", host=self.host, port=self.port
        )
        if self._stopped is not None:
            self._stopped.set()

    def _events(self):
        """The service's event log (inert when the stack has none)."""
        # `is None`, not truthiness: an *empty* EventLog is falsy.
        events = getattr(self.service, "events", None)
        return NULL_EVENT_LOG if events is None else events

    def close(self) -> None:
        """Close the owned service (drains its queue); not the listener.

        Call after :meth:`stop` (from outside the event loop: the queue
        drain blocks).  A caller-supplied service is left open.
        """
        if self._owns_service:
            self.service.close()

    # ------------------------------------------------------------------
    # Per-connection pipeline
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_event_loop()
        self._client_serial += 1
        client = _Client(f"client-{self._client_serial}", writer)
        self._clients.append(client)
        self._metrics.clients_total.inc()
        self._metrics.clients_active.inc()
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        writer_task = asyncio.ensure_future(self._writer_loop(client))
        try:
            while not self._stopping:
                # Flow control: a client that sends without reading its
                # responses parks here once the buffer is at its bound,
                # so its unread lines stay in the TCP window, not in
                # server memory.
                while (
                    len(client.slots) >= self.max_buffered_responses
                    and not client.eof
                ):
                    client.slots_free.clear()
                    await client.slots_free.wait()
                line_bytes = await reader.readline()
                if not line_bytes:
                    break
                line = line_bytes.decode("utf-8", errors="replace").strip()
                if not line or line.startswith("#"):
                    continue
                arrived = time.perf_counter()
                # Parsing may read a graph file from disk: executor.
                parsed = await loop.run_in_executor(
                    None, self.service.parse_line, line
                )
                self._metrics.requests.inc()
                slot = _Slot()
                if not isinstance(parsed, dict):
                    # Tag the request's origin for the event log.
                    parsed.client = client.name
                if isinstance(parsed, dict):
                    slot.resolve_error(parsed)
                elif client.outstanding >= self.max_inflight_per_client:
                    self._metrics.queue_full_rejections.inc()
                    slot.resolve_error(
                        {
                            "id": parsed.id,
                            "ok": False,
                            "error": QUEUE_FULL_ERROR,
                        }
                    )
                else:
                    # The deadline clock starts here, not at queue
                    # submission: time parked behind the admission
                    # stage is part of what the caller waits for.
                    parsed.arrived_at = arrived
                    slot.request = parsed
                    slot.admitted = True
                    client.outstanding += 1
                    client.admission.append(slot)
                    if self._admission_wake is not None:
                        self._admission_wake.set()
                client.slots.append(slot)
                client.wake.set()
        except (asyncio.CancelledError, ConnectionError):
            pass
        except ValueError:
            # LimitOverrunError (a ValueError): an oversized line.  The
            # stream is unrecoverable mid-line, so stop reading — the
            # finally still flushes every buffered response.
            self._metrics.oversized_drops.inc()
        finally:
            client.eof = True
            client.wake.set()
            try:
                await writer_task
            except (asyncio.CancelledError, Exception):
                pass
            try:
                self._clients.remove(client)
            except ValueError:
                pass
            self._metrics.clients_active.inc(-1)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, Exception):
                pass
            if task is not None:
                self._handler_tasks.discard(task)

    async def _writer_loop(self, client: _Client) -> None:
        """Emit responses in request order as their slots resolve."""
        while True:
            while not client.slots:
                if client.eof:
                    return
                client.wake.clear()
                await client.wake.wait()
            slot = client.slots[0]
            await slot.ready.wait()
            if slot.response is not None:
                response = slot.response
            else:
                pending = slot.pending
                try:
                    await asyncio.wrap_future(pending.future)
                except (Exception, CancelledError, asyncio.CancelledError):
                    pass  # render_response reports the failure per-request
                if isinstance(
                    self._future_exception(pending.future), DeadlineExceeded
                ):
                    self._metrics.deadline_expired.inc()
                response = self.service.render_response(pending)
            client.slots.popleft()
            client.slots_free.set()
            if slot.admitted:
                client.outstanding -= 1
            # Responses count when rendered: a disconnected client's
            # tail responses are accounted (ok/failed stay consistent
            # with the queue's own completions) even though delivery
            # failed — the drain below keeps going either way.
            if response.get("ok"):
                self._metrics.responses_ok.inc()
            else:
                self._metrics.responses_error.inc()
            if not client.broken:
                try:
                    client.writer.write(
                        (json.dumps(response, sort_keys=True) + "\n").encode(
                            "utf-8"
                        )
                    )
                    await client.writer.drain()
                except (ConnectionError, asyncio.CancelledError):
                    # The client went away: keep draining slots (their
                    # futures resolve regardless) but stop writing.
                    client.broken = True

    @staticmethod
    def _future_exception(future) -> Optional[BaseException]:
        try:
            return future.exception()
        except (CancelledError, Exception):
            return None

    # ------------------------------------------------------------------
    # Fair admission
    # ------------------------------------------------------------------
    async def _admission_loop(self) -> None:
        """Round-robin one submission at a time across ready clients.

        Strict fairness comes from the single consumer: each cycle
        admits at most one request per client with work waiting, and
        the shared-queue space wait (in the executor) paces everyone
        equally because nobody else can slip a request in around it.
        """
        assert self._admission_wake is not None
        loop = asyncio.get_event_loop()
        while True:
            client = None
            for _ in range(len(self._clients)):
                candidate = self._clients[0]
                self._clients.rotate(-1)
                if candidate.admission:
                    client = candidate
                    break
            if client is None:
                if self._stopping:
                    return
                self._admission_wake.clear()
                # Re-check before sleeping: a slot appended (or stop
                # requested) after the scan above sets the event.
                if any(c.admission for c in self._clients):
                    continue
                await self._admission_wake.wait()
                continue
            slot = client.admission.popleft()
            deadline = slot.request.deadline_seconds
            if deadline is not None and slot.request.arrived_at is not None:
                waited = time.perf_counter() - slot.request.arrived_at
                if waited > deadline:
                    # Already dead on arrival at admission: shed here
                    # rather than spend a queue slot on it.  The queue
                    # never saw this request, so report the pre-shed to
                    # its admission-stage expiry counter explicitly.
                    self._metrics.deadline_expired.inc()
                    self.service.queue.note_admission_expired(slot.request)
                    slot.resolve_error(
                        error_response(
                            slot.request.id,
                            DeadlineExceeded(
                                f"deadline of {deadline}s exceeded after "
                                f"{waited:.3f}s awaiting admission",
                                deadline_seconds=deadline,
                                waited_seconds=waited,
                            ),
                        )
                    )
                    client.wake.set()
                    continue
            try:
                pending = await loop.run_in_executor(
                    None,
                    self.service.submit_pending,
                    slot.request,
                    self.submit_timeout_seconds,
                )
            except QueueFull:
                self._metrics.queue_full_rejections.inc()
                slot.resolve_error(
                    {
                        "id": slot.request.id,
                        "ok": False,
                        "error": QUEUE_FULL_ERROR,
                    }
                )
            except ServingError as error:
                slot.resolve_error(error_response(slot.request.id, error))
            else:
                slot.resolve_pending(pending)
            client.wake.set()


# ----------------------------------------------------------------------
# Synchronous driver (tests, benchmarks, CLI smoke)
# ----------------------------------------------------------------------
class ServerHandle:
    """A running :class:`ServingServer` on a background event loop.

    Context-manager: ``stop()`` (or exit) quiesces the server, joins
    the loop thread, and closes the owned service.
    """

    def __init__(
        self,
        server: ServingServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def stats(self) -> ServerStats:
        return self.server.stats

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server, join its thread, close the owned service."""
        stop_loop_thread(self.server, self._loop, self._thread, timeout)
        self.server.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def stop_loop_thread(
    server: Any,
    loop: asyncio.AbstractEventLoop,
    thread: threading.Thread,
    timeout: float,
) -> None:
    """Stop a front-end server running on its own loop thread, and join it.

    The thread ends exactly when the server has stopped (its main
    coroutine awaits ``wait_stopped``), so this waits for the *thread*,
    never for a coroutine scheduled onto the loop: after an out-of-band
    ``server.stop()`` that loop may already be tearing down and would
    never run it.  A server that is already stopping is only joined.
    Raises what the scheduled ``stop()`` raised, or
    :class:`ServingError` if the thread outlives ``timeout``.
    """
    if not thread.is_alive():
        return
    future = None
    if not server._stopping:
        try:
            future = asyncio.run_coroutine_threadsafe(server.stop(), loop)
        except RuntimeError:
            pass  # the loop closed: an out-of-band stop got there first
    thread.join(timeout=timeout)
    if future is not None and future.done() and not future.cancelled():
        future.result()  # re-raises a failure inside stop()
    if thread.is_alive():
        raise ServingError(f"server thread did not stop within {timeout}s")


def start_server_thread(
    timeout: float = 30.0, **server_kwargs: Any
) -> ServerHandle:
    """Start a :class:`ServingServer` on a dedicated loop thread.

    Blocks until the listener is bound (so ``handle.port`` is real) and
    returns the handle; raises whatever :meth:`ServingServer.start`
    raised (e.g. a busy port) instead of leaking a half-started thread.
    """
    server = ServingServer(**server_kwargs)
    started = threading.Event()
    box: Dict[str, Any] = {}

    def _run() -> None:
        async def _main() -> None:
            try:
                await server.start()
            except BaseException as error:  # surface bind failures
                box["error"] = error
                started.set()
                return
            box["loop"] = asyncio.get_event_loop()
            started.set()
            await server.wait_stopped()

        asyncio.run(_main())

    thread = threading.Thread(
        target=_run, name="repro-serve-socket", daemon=True
    )
    thread.start()
    if not started.wait(timeout=timeout):
        raise ServingError("socket server failed to start in time")
    if "error" in box:
        thread.join(timeout=timeout)
        raise box["error"]
    return ServerHandle(server, box["loop"], thread)
