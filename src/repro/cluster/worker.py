"""The shard worker process: one process serving one shard's op table.

A worker hosts exactly one shard of a multi-process cluster: a
:class:`~repro.shard.ops.ShardWorker`, whose ``op_*`` methods are the op
table of every sharded shape (documented in :mod:`repro.shard.ops`).  It
holds no hash family, bucket table or estimator — the coordinator's
facade keeps those.  This module adds what a process needs around that
table: the serve loop over the length-prefixed pickle protocol of
:mod:`repro.cluster.transport` (plus ``shutdown``, which ends a
session), and the run modes: :func:`run_spawned_worker` (connect back to
the coordinator that spawned this process) and :func:`serve` (standalone
``repro worker`` — listen on an address, serve one coordinator session
at a time).
"""

from __future__ import annotations

import os
import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.cluster.transport import (
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    describe_error,
)
from repro.errors import ClusterError
from repro.obs.metrics import get_global_registry
from repro.obs.tracing import activate_trace_context, get_tracer, trace
from repro.shard.ops import ShardWorker


def serve_connection(conn: Connection, worker: ShardWorker) -> bool:
    """Serve one coordinator session; returns True on explicit shutdown.

    The loop survives per-op failures (the error is reported in the
    reply and the session continues) and ends cleanly on EOF — a
    coordinator that crashed without saying goodbye must not leave the
    worker process spinning.

    Telemetry lives in the reply *meta* envelope, never the payload: every
    reply carries ``{"seconds": <handler wall time>}`` (this feeds
    ``WorkerHandle.worker_ingest_seconds`` and the bench_cluster
    pipeline model), and when the request meta shipped a trace context the
    worker's finished spans ride back as ``{"spans": [...]}`` so the
    coordinator stitches them into the caller's trace tree.  Per-op wall
    time also lands in this process's global metrics registry
    (``worker_op_seconds{op=...}``), exported on ``stats`` fan-outs.
    """
    registry = get_global_registry()
    tracer = get_tracer()
    op_histograms: Dict[str, Any] = {}
    while True:
        try:
            op, payload, request_meta = conn.recv()
        except ConnectionClosed:
            return False  # coordinator went away: end of session
        if op == "shutdown":
            try:
                conn.send("ok", {})
            except ConnectionClosed:
                pass
            return True
        trace_ctx = request_meta.get("trace")
        started = time.perf_counter()
        span = None
        try:
            if trace_ctx is not None:
                with activate_trace_context(trace_ctx):
                    with trace(f"worker.{op}", shard_id=worker.shard_id) as span:
                        result = worker.handle(op, payload)
            else:
                result = worker.handle(op, payload)
        except Exception as error:  # noqa: BLE001  # reprolint: disable=R007 - protocol boundary: every failure becomes an error reply to the coordinator
            status, body = "error", describe_error(error)
            if span is not None:
                span.set_attribute("error", body["type"])
        else:
            status, body = "ok", result
        elapsed = time.perf_counter() - started
        histogram = op_histograms.get(op)
        if histogram is None:
            histogram = op_histograms[op] = registry.histogram(
                "worker_op_seconds", op=op
            )
        histogram.observe(elapsed)
        reply_meta: Dict[str, Any] = {"seconds": elapsed}
        if trace_ctx is not None:
            # ship only this trace's spans; anything else (same-process
            # test harnesses sharing the global tracer) goes back in the
            # buffer untouched
            drained = tracer.drain()
            mine = [s for s in drained if s.trace_id == trace_ctx["trace_id"]]
            tracer.adopt(s for s in drained if s.trace_id != trace_ctx["trace_id"])
            reply_meta["spans"] = [s.to_dict() for s in mine]
        try:
            conn.send(status, body, reply_meta)
        except ConnectionClosed:
            return False


# ----------------------------------------------------------------------
# run modes
# ----------------------------------------------------------------------
def run_spawned_worker(
    host: str, port: int, token: str, shard_id: int, connect_timeout: float = 30.0
) -> None:
    """Entry point of a coordinator-spawned worker process.

    Connects back to the coordinator's rendezvous listener, identifies
    itself (token + shard id), then serves until shutdown or EOF.
    """
    sock = socket.create_connection((host, port), timeout=connect_timeout)
    conn = Connection(sock, timeout=connect_timeout)
    conn.send(
        "hello",
        {
            "protocol": PROTOCOL_VERSION,
            "token": token,
            "shard_id": shard_id,
            "pid": os.getpid(),
        },
    )
    conn.recv_reply(context="worker handshake")
    # session established: block indefinitely for requests (the socket
    # EOFs if the coordinator dies, which ends the serve loop)
    sock.settimeout(None)
    try:
        serve_connection(conn, ShardWorker(shard_id))
    finally:
        conn.close()


def _check_hello(payload: Dict[str, Any], token: Optional[str]) -> None:
    if int(payload.get("protocol", -1)) != PROTOCOL_VERSION:
        raise ClusterError(
            f"protocol mismatch: worker speaks {PROTOCOL_VERSION}, "
            f"coordinator sent {payload.get('protocol')!r}"
        )
    if token is not None and payload.get("token") != token:
        raise ClusterError("coordinator presented a wrong or missing token")


def serve(
    address: Tuple[str, int],
    *,
    token: Optional[str] = None,
    once: bool = False,
    on_ready: Any = None,
) -> None:
    """Standalone worker loop (the ``repro worker`` CLI command).

    Listens on ``address`` and serves one coordinator session at a time;
    each session begins with the coordinator's ``hello`` (protocol +
    token check) and ends at shutdown/EOF.  With ``once`` the process
    returns after the first session instead of waiting for the next
    coordinator.  ``on_ready`` (if given) is called with the bound
    ``(host, port)`` once the socket is listening.
    """
    listener = socket.create_server(address, backlog=1)
    try:
        if on_ready is not None:
            on_ready(listener.getsockname()[:2])
        while True:
            client, _peer = listener.accept()
            conn = Connection(client, timeout=None)
            try:
                op, payload, _meta = conn.recv()
                if op != "hello":
                    raise ClusterError(f"expected 'hello', got {op!r}")
                _check_hello(payload or {}, token)
            except ClusterError as error:
                try:
                    conn.send("error", describe_error(error))
                except ConnectionClosed:
                    pass  # the peer is gone; nothing to tell it
                finally:
                    conn.close()
                continue
            except ConnectionClosed:
                conn.close()
                continue
            try:
                conn.send("ok", {"pid": os.getpid(), "protocol": PROTOCOL_VERSION})
            except ConnectionClosed:
                # the client vanished between hello and our reply: this was
                # never a session — keep listening (even under ``once``)
                conn.close()
                continue
            shard_id = payload.get("shard_id")
            try:
                serve_connection(
                    conn, ShardWorker(None if shard_id is None else int(shard_id))
                )
            finally:
                conn.close()
            if once:
                return
    finally:
        listener.close()


__all__ = ["serve", "serve_connection", "run_spawned_worker"]
