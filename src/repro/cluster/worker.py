"""The shard worker: one process hosting one shard's rows.

A worker owns exactly one shard of a multi-process cluster: a
:class:`~repro.streaming.rowstore.RowStore` with the ids and rows of the
vectors whose buckets the shard owns.  It holds no hash family, bucket
table or estimator — the coordinator's facade keeps those.  It speaks
the length-prefixed pickle protocol of :mod:`repro.cluster.transport`
and understands a small op set, all of whose payloads are the library's
existing serialisations:

=====================  ====================================================
``configure``          build an empty row store of the given dimension
``restore``            revive the row store from a row-store state
``snapshot``           return the row-store state
``insert_prepared``    add a routed batch slice (ids, CSR rows)
``delete``             remove an array of ids
``gather_rows``        (normalized) CSR rows of the shard's unique ids, one request per pair batch
``ids``                the stored ids, ascending (invariant checks)
``check`` / ``stats``  invariants / row count
``ping`` / ``shutdown``  liveness / end of session
=====================  ====================================================

Mutating ops reply with the post-op row count, which the coordinator
checks against its own count for the shard.  No op draws samples: the
coordinator samples from its own global bucket table, which keeps every
estimate bit-identical to an in-process one.

Run modes: :func:`run_spawned_worker` (connect back to the coordinator
that spawned this process) and :func:`serve` (standalone ``repro
worker`` — listen on an address, serve one coordinator session at a
time).
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
from repro.streaming.rowstore import RowStore


class ShardWorker:
    """Dispatch table + state for one shard-hosting worker process."""

    def __init__(self, shard_id: Optional[int] = None) -> None:
        self.shard_id = shard_id
        self.store: Optional[RowStore] = None

    # ------------------------------------------------------------------
    def _require_store(self) -> RowStore:
        if self.store is None:
            raise ClusterError("worker holds no rows yet (send 'configure' or 'restore')")
        return self.store

    def _stats(self) -> Dict[str, Any]:
        return {"size": 0 if self.store is None else len(self.store)}

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def op_ping(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"pid": os.getpid(), "shard_id": self.shard_id, **self._stats()}

    def op_configure(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        if self.store is not None:
            raise ClusterError("worker is already configured")
        self.shard_id = int(payload["shard_id"])
        self.store = RowStore(int(payload["dimension"]))
        return self._stats()

    def op_restore(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        # revive first: a refused state leaves the served shard untouched
        store = RowStore.from_state(payload.get("state"))
        if "shard_id" in payload and payload["shard_id"] is not None:
            self.shard_id = int(payload["shard_id"])
        self.store = store
        return self._stats()

    def op_snapshot(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"state": self._require_store().state()}

    def op_insert_prepared(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._require_store().add_many(payload["ids"], payload["csr"])
        return self._stats()

    def op_delete(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._require_store().remove_many(payload["ids"])
        return self._stats()

    def op_gather_rows(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        store = self._require_store()
        ids = payload["ids"]
        matrix = (
            store.gather_normalized(ids)
            if payload.get("normalized")
            else store.gather_raw(ids)
        )
        return {"matrix": matrix}

    def op_ids(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return {"ids": self._require_store().ids()}

    def op_check(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self._require_store().check_invariants()
        return self._stats()

    def op_stats(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        stats = self._stats()
        if payload.get("metrics"):
            # opt-in: the worker's process-global registry (per-op latency
            # histograms etc.), merged coordinator-side by stats fan-outs
            stats["metrics"] = get_global_registry().snapshot().to_dict()
        return stats

    # ------------------------------------------------------------------
    def handle(self, op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise ClusterError(f"unknown worker op {op!r}")
        return handler(payload or {})


def serve_connection(conn: Connection, worker: ShardWorker) -> bool:
    """Serve one coordinator session; returns True on explicit shutdown.

    The loop survives per-op failures (the error is reported in the
    reply and the session continues) and ends cleanly on EOF — a
    coordinator that crashed without saying goodbye must not leave the
    worker process spinning.

    Telemetry lives in the reply *meta* envelope, never the payload: every
    reply carries ``{"seconds": <handler wall time>}`` (this feeds
    ``RemoteRowStore.worker_ingest_seconds`` and the bench_cluster
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


__all__ = ["ShardWorker", "serve", "serve_connection", "run_spawned_worker"]
