"""The estimation server: concurrent reads, one writer, bounded queues.

:class:`EstimationServer` puts a :class:`GenerationManager` engine
behind the cluster's framed-socket transport: one acceptor thread, one
handler thread per connection, and a single writer thread that batches
queued ingests into epoch commits.  Reads share the engine through the
manager's readers–writer gate; a commit holds them off only while it
applies its batch.  The protocol is the existing length-prefixed pickle
protocol of :mod:`repro.cluster.transport` (trusted links only; same
``hello`` handshake with optional token), with one addition: a ``busy``
reply status.

Backpressure is explicit everywhere a request could otherwise buffer
without bound:

* **Writes** land in a bounded queue consumed by the writer thread.  A
  full queue answers ``busy`` with a ``retry_after`` hint instead of
  accepting work it cannot absorb.
* **Estimates** are capped by a semaphore of in-flight slots.  No free
  slot → ``busy``.
* During shutdown every new request is answered ``busy`` with
  ``reason="draining"`` while in-flight work completes.

Every write is acknowledged only after its epoch is *published* —
clients never get an ``ok`` for a row that could still be lost by a
clean shutdown.  After a failed commit estimates are refused with a
:class:`~repro.errors.ServeError`, while ``describe`` and ``stats``
keep answering (with ``broken: true``).  Ops: ``estimate``,
``ingest``, ``flush``, ``describe``, ``stats``, ``ping``.

Observability: per-op latency histograms
(``serve_request_seconds{op=…}``), request counters
(``serve_requests_total{op=…, status=…}``), queue-depth and in-flight
gauges, and request-scoped spans — a client that ships a trace context
in the request meta gets the server-side spans back in the reply meta,
exactly like the cluster workers.
"""

from __future__ import annotations

import os
import queue
import socket
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.cluster.transport import (
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    describe_error,
    parse_address,
)
from repro.engine.backends import resolve_backend
from repro.engine.engine import EstimateRequest, JoinEstimationEngine
from repro.errors import ClusterError, ServeError, StrandedWritesError, ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import activate_trace_context, get_tracer, trace
from repro.serve.generations import GenerationManager
from repro.streaming.events import Checkpoint, Delete, Insert, event_from_dict
from repro.vectors import VectorCollection

_STOP = object()  # writer-queue sentinel

#: how long a client's write, and shutdown's writer join, wait for a
#: commit before giving up on it
_COMMIT_WAIT_SECONDS = 60.0


class _WriteTicket:
    """One client write request waiting for its epoch commit."""

    __slots__ = ("sources", "done", "applied", "error", "epoch")

    def __init__(self, sources: List[Any]) -> None:
        self.sources = sources
        self.done = threading.Event()
        self.applied = 0
        self.error: Optional[BaseException] = None
        self.epoch: Optional[int] = None


class EstimationServer:
    """A long-lived daemon serving concurrent estimates over one engine.

    Parameters
    ----------
    config:
        Engine configuration (``EngineConfig`` / dict / JSON path); the
        server builds its one engine from it.
    listen:
        ``(host, port)`` or ``"host:port"``; port 0 picks a free port
        (read the bound one from :attr:`address`).
    token:
        Optional shared secret checked in the ``hello`` handshake.
    queue_depth:
        Bound on queued-but-uncommitted write requests; a full queue
        answers ``busy``.
    max_estimates:
        Bound on in-flight estimate requests.
    epoch_events:
        Soft cap on sources batched into one epoch commit.
    retry_after:
        The hint (seconds) shipped with ``busy`` replies.
    metrics:
        Optional shared registry; fresh per server by default.
    """

    def __init__(
        self,
        config: Any,
        *,
        listen: Union[str, Tuple[str, int]] = ("127.0.0.1", 0),
        token: Optional[str] = None,
        queue_depth: int = 256,
        max_estimates: int = 16,
        epoch_events: int = 512,
        retry_after: float = 0.05,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if queue_depth < 1:
            raise ValidationError(f"queue_depth must be >= 1, got {queue_depth}")
        if max_estimates < 1:
            raise ValidationError(f"max_estimates must be >= 1, got {max_estimates}")
        if epoch_events < 1:
            raise ValidationError(f"epoch_events must be >= 1, got {epoch_events}")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._listen = (
            parse_address(listen, allow_ephemeral=True)
            if isinstance(listen, str)
            else tuple(listen)
        )
        self._token = token
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._queue_depth = queue_depth
        self._estimate_slots = threading.BoundedSemaphore(max_estimates)
        self._epoch_events = epoch_events
        self._retry_after = float(retry_after)
        self._generations = GenerationManager(config, metrics=self.metrics)
        self.config = self._generations.config
        # reads against a backend without CONCURRENT_READS (the process
        # cluster: one outstanding request per worker socket) are
        # serialised here; in-process backends run them from every
        # handler thread at once
        self._read_serialiser: Optional[threading.Lock] = (
            None if resolve_backend(self.config.backend).CONCURRENT_READS else threading.Lock()
        )
        self._listener: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        self._acceptor: Optional[threading.Thread] = None
        self._writer: Optional[threading.Thread] = None
        self._conn_lock = threading.Lock()
        self._connections: Dict[int, Connection] = {}
        self._conn_threads: List[threading.Thread] = []
        self._inflight = 0
        self._inflight_cond = threading.Condition()
        self._stopping = threading.Event()
        self._closed = False
        #: rows and delete ids recovered by a drain after a failed commit
        #: (also carried by the StrandedWritesError that shutdown() raises)
        self.stranded_rows: List[Any] = []
        self.stranded_deletes: List[int] = []
        # instrument handles cached up front, off the request hot path
        self._op_seconds: Dict[str, Any] = {}
        self._op_counters: Dict[Tuple[str, str], Any] = {}
        self._queue_gauge = self.metrics.gauge("serve_queue_depth")
        self._inflight_gauge = self.metrics.gauge("serve_inflight_estimates")
        self._connections_gauge = self.metrics.gauge("serve_connections")
        self._rejected = {
            reason: self.metrics.counter("serve_rejected_total", reason=reason)
            for reason in ("queue-full", "estimates-full", "draining")
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "EstimationServer":
        """Bind, spawn the acceptor + writer threads, return ``self``."""
        if self._listener is not None:
            raise ServeError("server is already started")
        self._listener = socket.create_server(self._listen, backlog=128)
        self.address = self._listener.getsockname()[:2]
        self._writer = threading.Thread(
            target=self._write_loop, name="repro-serve-writer", daemon=True
        )
        self._writer.start()
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="repro-serve-acceptor", daemon=True
        )
        self._acceptor.start()
        return self

    @property
    def epoch(self) -> int:
        return self._generations.epoch

    def __enter__(self) -> "EstimationServer":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish in-flight, close.

        Every acknowledged write is already committed (acks follow epoch
        publication), so a clean drain strands nothing.  After a failed
        commit the engines are drained and the recovered writes surface as
        :class:`~repro.errors.StrandedWritesError` (also kept in
        :attr:`stranded_rows` and :attr:`stranded_deletes`) rather than
        disappearing with the daemon.
        """
        if self._closed:
            return
        self._closed = True
        self._stopping.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept()
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=10.0)
        if self._writer is not None and self._writer.is_alive():
            # the writer drains every ticket ahead of the sentinel, then
            # refuses stragglers; blocking put is safe — the consumer is
            # alive by the is_alive() check and never stops before _STOP
            self._queue.put(_STOP)
            self._writer.join(timeout=_COMMIT_WAIT_SECONDS)
        self._refuse_leftover_tickets()
        with self._inflight_cond:
            deadline = time.monotonic() + 10.0
            while self._inflight > 0:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break  # a stuck handler must not wedge shutdown
                self._inflight_cond.wait(remaining)
        with self._conn_lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()  # unblocks handler threads parked in recv()
        with self._conn_lock:
            # snapshot under the lock: the acceptor registers threads under
            # _conn_lock, so an unlocked iteration could race a late accept
            # (list mutation mid-iteration, or joining a thread the
            # acceptor has registered but not yet started)
            conn_threads = list(self._conn_threads)
        for thread in conn_threads:
            thread.join(timeout=10.0)
        try:
            self._generations.close()
        except StrandedWritesError as error:
            self.stranded_rows = list(error.pending_rows)
            self.stranded_deletes = list(error.pending_deletes)
            raise

    def _refuse_leftover_tickets(self) -> None:
        while True:
            try:
                ticket = self._queue.get_nowait()
            except queue.Empty:
                return
            if ticket is _STOP:
                continue
            ticket.error = ServeError("server is shutting down")
            ticket.done.set()

    # ------------------------------------------------------------------
    # writer thread
    # ------------------------------------------------------------------
    def _write_loop(self) -> None:
        while True:
            ticket = self._queue.get()
            if ticket is _STOP:
                break
            tickets = [ticket]
            batched = len(ticket.sources)
            stop_after = False
            while batched < self._epoch_events:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _STOP:
                    stop_after = True
                    break
                tickets.append(nxt)
                batched += len(nxt.sources)
            self._queue_gauge.set(float(self._queue.qsize()))
            try:
                results = self._generations.commit([t.sources for t in tickets])
            except BaseException as error:  # noqa: BLE001  # reprolint: disable=R007 - every waiting ticket must learn the commit failed or its client hangs
                for t in tickets:
                    t.error = error
                    t.done.set()
            else:
                epoch = self._generations.epoch
                for t, result in zip(tickets, results):
                    t.applied = result.applied
                    t.error = result.error
                    t.epoch = epoch
                    t.done.set()
            if stop_after:
                break
        self._refuse_leftover_tickets()

    # ------------------------------------------------------------------
    # acceptor + per-connection handlers
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                client, _peer = self._listener.accept()
            except OSError:
                break  # listener closed: shutdown
            thread = threading.Thread(
                target=self._serve_connection,
                args=(client,),
                name="repro-serve-conn",
                daemon=True,
            )
            with self._conn_lock:
                # register *and start* under the lock: shutdown snapshots
                # this list under the same lock, so it can never observe a
                # registered-but-unstarted thread (join() would raise)
                self._conn_threads.append(thread)
                thread.start()

    def _serve_connection(self, sock: socket.socket) -> None:
        conn = Connection(sock, timeout=None, metrics=self.metrics)
        try:
            op, payload, _meta = conn.recv()
            if op != "hello":
                raise ClusterError(f"expected 'hello', got {op!r}")
            self._check_hello(payload or {})
        except (ClusterError, ConnectionClosed) as error:
            if not isinstance(error, ConnectionClosed):
                try:
                    conn.send("error", describe_error(error))
                except ConnectionClosed:
                    pass
            conn.close()
            return
        try:
            conn.send(
                "ok",
                {
                    "pid": os.getpid(),
                    "protocol": PROTOCOL_VERSION,
                    "epoch": self._generations.epoch,
                    "backend": self.config.backend,
                },
            )
        except ConnectionClosed:
            conn.close()
            return
        key = id(conn)
        with self._conn_lock:
            self._connections[key] = conn
            self._connections_gauge.set(float(len(self._connections)))
        tracer = get_tracer()
        try:
            while True:
                try:
                    op, payload, request_meta = conn.recv()
                except ConnectionClosed:
                    return
                with self._inflight_cond:
                    self._inflight += 1
                try:
                    status, body, reply_meta = self._dispatch(
                        op, payload, request_meta, tracer
                    )
                finally:
                    with self._inflight_cond:
                        self._inflight -= 1
                        self._inflight_cond.notify_all()
                try:
                    conn.send(status, body, reply_meta)
                except ConnectionClosed:
                    return
        finally:
            conn.close()
            with self._conn_lock:
                self._connections.pop(key, None)
                self._connections_gauge.set(float(len(self._connections)))

    def _check_hello(self, payload: Dict[str, Any]) -> None:
        if int(payload.get("protocol", -1)) != PROTOCOL_VERSION:
            raise ClusterError(
                f"protocol mismatch: server speaks {PROTOCOL_VERSION}, "
                f"client sent {payload.get('protocol')!r}"
            )
        if self._token is not None and payload.get("token") != self._token:
            raise ClusterError("client presented a wrong or missing token")

    def _dispatch(
        self, op: str, payload: Any, request_meta: Dict[str, Any], tracer: Any
    ) -> Tuple[str, Any, Dict[str, Any]]:
        """Run one op under tracing/metrics; never raises."""
        trace_ctx = request_meta.get("trace")
        started = time.perf_counter()
        span = None
        try:
            if trace_ctx is not None:
                with activate_trace_context(trace_ctx):
                    with trace(f"serve.{op}") as span:
                        status, body = self._handle(op, payload)
                        if status != "ok":
                            span.set_attribute("status", status)
            else:
                status, body = self._handle(op, payload)
        except Exception as error:  # noqa: BLE001  # reprolint: disable=R007 - protocol boundary: every failure becomes an error reply to the client
            status, body = "error", describe_error(error)
            if span is not None:
                span.set_attribute("error", body["type"])
        elapsed = time.perf_counter() - started
        histogram = self._op_seconds.get(op)
        if histogram is None:
            histogram = self._op_seconds[op] = self.metrics.histogram(
                "serve_request_seconds", op=op
            )
        histogram.observe(elapsed)
        counter_key = (op, status)
        counter = self._op_counters.get(counter_key)
        if counter is None:
            counter = self._op_counters[counter_key] = self.metrics.counter(
                "serve_requests_total", op=op, status=status
            )
        counter.inc()
        reply_meta: Dict[str, Any] = {"seconds": elapsed}
        if trace_ctx is not None:
            drained = tracer.drain()
            mine = [s for s in drained if s.trace_id == trace_ctx["trace_id"]]
            tracer.adopt(s for s in drained if s.trace_id != trace_ctx["trace_id"])
            reply_meta["spans"] = [s.to_dict() for s in mine]
        return status, body, reply_meta

    # ------------------------------------------------------------------
    # op handlers
    # ------------------------------------------------------------------
    def _busy(self, reason: str) -> Tuple[str, Dict[str, Any]]:
        counter = self._rejected.get(reason)
        if counter is not None:
            counter.inc()
        return "busy", {"reason": reason, "retry_after": self._retry_after}

    def _handle(self, op: str, payload: Any) -> Tuple[str, Any]:
        handler = self._HANDLERS.get(op)
        if handler is None:
            raise ClusterError(f"unknown op {op!r}")
        return handler(self, payload)

    @contextmanager
    def _reading(self) -> Iterator[Tuple[JoinEstimationEngine, int]]:
        """Yield ``(engine, epoch)`` for one read; no commit runs meanwhile.

        On a backend without ``CONCURRENT_READS`` the block also holds
        ``_read_serialiser``: running the engine calls one at a time is
        that lock's entire job.  Inside the block take only locks that
        ``repro.analysis.lockdep.LOCK_ORDER`` ranks after it (today only
        the metrics registry's).
        """
        with self._generations.read() as generation:
            if self._read_serialiser is None:
                yield generation.engine, generation.epoch
            else:
                with self._read_serialiser:
                    yield generation.engine, generation.epoch

    def _handle_estimate(self, payload: Any) -> Tuple[str, Any]:
        if self._stopping.is_set():
            return self._busy("draining")
        if not self._estimate_slots.acquire(blocking=False):
            return self._busy("estimates-full")
        try:
            self._inflight_gauge.inc()
            request = EstimateRequest.from_dict(payload or {})
            with self._reading() as (engine, epoch):
                broken = self._generations.broken
                if broken is not None:
                    # the engine may hold rows whose clients were told
                    # the write failed; the sharded estimator would even
                    # flush them before estimating
                    raise ServeError(
                        "a previous commit failed; estimates are refused until "
                        "the server is restarted"
                    ) from broken
                result = engine.estimate(request)
            return "ok", {"result": result.to_dict(), "epoch": epoch}
        finally:
            self._inflight_gauge.inc(-1.0)
            self._estimate_slots.release()

    def _sources_from_payload(self, payload: Any) -> List[Any]:
        if not isinstance(payload, dict):
            raise ValidationError("ingest payload must be a dict")
        unknown = sorted(set(payload) - {"events", "collection"})
        if unknown:
            raise ValidationError(f"unknown ingest field(s) {unknown}")
        sources: List[Any] = []
        collection = payload.get("collection")
        if collection is not None:
            if not isinstance(collection, VectorCollection):
                collection = VectorCollection(collection)
            sources.append(collection)
        for event in payload.get("events", ()):
            if isinstance(event, dict):
                event = event_from_dict(event)
            if not isinstance(event, (Insert, Delete, Checkpoint)):
                raise ValidationError(
                    f"cannot ingest {type(event).__name__}; expected change "
                    "events or a vector collection"
                )
            # one source per event: a rejected event fails alone instead
            # of leaving a half-applied multi-event source behind
            sources.append(event)
        if not sources:
            raise ValidationError("ingest payload carries no events or collection")
        return sources

    def _enqueue_and_wait(self, sources: List[Any]) -> Tuple[str, Any]:
        ticket = _WriteTicket(sources)
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            return self._busy("queue-full")
        self._queue_gauge.set(float(self._queue.qsize()))
        if not ticket.done.wait(timeout=_COMMIT_WAIT_SECONDS):
            raise ServeError(
                f"the writer did not commit within {_COMMIT_WAIT_SECONDS:.0f}s"
            )
        if ticket.error is not None:
            if isinstance(ticket.error, Exception):
                raise ticket.error
            raise ServeError(f"commit failed: {ticket.error!r}")
        return "ok", {"applied": ticket.applied, "epoch": ticket.epoch}

    def _handle_ingest(self, payload: Any) -> Tuple[str, Any]:
        if self._stopping.is_set():
            return self._busy("draining")
        return self._enqueue_and_wait(self._sources_from_payload(payload))

    def _handle_flush(self, payload: Any) -> Tuple[str, Any]:
        """A write barrier: commits (and publishes) everything queued."""
        if self._stopping.is_set():
            return self._busy("draining")
        return self._enqueue_and_wait([])

    def _handle_describe(self, payload: Any) -> Tuple[str, Any]:
        with self._reading() as (engine, epoch):
            described = engine.backend.describe()
        return "ok", {"describe": described, "epoch": epoch,
                      "config": self.config.to_dict()}

    def _handle_stats(self, payload: Any) -> Tuple[str, Any]:
        """Serve-aware stats: the server surface + the engine's."""
        with self._reading() as (engine, epoch):
            engine_stats = engine.stats()
        with self._conn_lock:
            connections = len(self._connections)
        server_stats = {
            "epoch": epoch,
            "queue_depth": self._queue.qsize(),
            "queue_capacity": self._queue_depth,
            "connections": connections,
            "readers": self._generations.reader_count,
            "broken": self._generations.broken is not None,
            "pid": os.getpid(),
        }
        return "ok", {"server": server_stats, "engine": engine_stats}

    def _handle_ping(self, payload: Any) -> Tuple[str, Any]:
        return "ok", {
            "pid": os.getpid(),
            "epoch": self._generations.epoch,
            "queue_depth": self._queue.qsize(),
        }

    #: the serve protocol: every op a client may send, and its handler
    _HANDLERS: Dict[str, Callable[["EstimationServer", Any], Tuple[str, Any]]] = {
        "estimate": _handle_estimate,
        "ingest": _handle_ingest,
        "flush": _handle_flush,
        "describe": _handle_describe,
        "stats": _handle_stats,
        "ping": _handle_ping,
    }


__all__ = ["EstimationServer"]
