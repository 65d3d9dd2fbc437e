"""The cluster coordinator: a ``ShardedMutableIndex`` whose shards are processes.

:class:`ClusterCoordinator` subclasses
:class:`~repro.shard.sharded_index.ShardedMutableIndex` and connects each
shard to a **worker process** (:mod:`repro.cluster.worker`) that serves
the shard's op table (:class:`~repro.shard.ops.ShardWorker`) over the
length-prefixed pickle protocol of :mod:`repro.cluster.transport`.  The
facade's shards are :class:`WorkerHandle` objects, which expose the same
``send_request`` / ``recv_reply`` pair as an in-process
:class:`~repro.shard.ops.ShardWorker`, so everything above the shard
boundary — hashing, bucket-key routing, the global bucket table,
SampleH / SampleL, the per-shard counters, the one dispatch path
``_fan_out``, rebalance, snapshot and restore, the facade estimator and
its reservoirs — is inherited *unchanged*.  That keeps every estimate of
a process cluster bit-identical to an in-process one (and exact-mode
estimates to an unsharded estimator) for the same seed:

* the coordinator owns the hash family; a worker holds ids and rows
  only, so no family or signature crosses the wire;
* every sampling draw runs on the coordinator's global bucket table,
  consuming its generator exactly as in process, so SampleH, SampleL's
  collision tests and the estimator repairs never cost a round trip;
* a fan-out sends every request before awaiting any reply, so a request
  to ``S`` workers costs one round-trip latency.

What the coordinator adds is the plumbing: spawning or dialling one
worker per shard (:meth:`ClusterCoordinator._connect`), ``close``,
``stats`` and the wiring of :meth:`ClusterCoordinator.from_state`.

Ingest is where the processes pay off: ``commit_batch`` *pipelines* a
routed batch — every touched worker receives its one ``write`` (the
rows to add and the ids to drop) before any reply is awaited, so the
workers store their rows in parallel (real parallelism: separate
processes, no GIL).

Failure model: every request carries a timeout; a worker that crashed or
hung raises :class:`~repro.errors.WorkerCrashError` naming the shard
instead of hanging the coordinator.  A transport failure, or a failed
mutating fan-out (a commit, a delete or a rebalance migration whose
other requests may have applied), marks the whole cluster *broken*:
further operations raise, and :meth:`close` falls back from the graceful
shutdown handshake to terminating the worker processes.  ``close`` is
idempotent and always reaps every spawned process.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import secrets
import socket
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union, cast

import numpy as np

from repro.cluster.transport import (
    PROTOCOL_VERSION,
    Connection,
    parse_address,
)
from repro.cluster.worker import run_spawned_worker
from repro.errors import ClusterError, ValidationError, WorkerCrashError
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.obs.tracing import current_trace_context, get_tracer, trace
from repro.rng import RandomState
from repro.shard.sharded_index import PreparedBatch, ShardedMutableIndex

DEFAULT_REQUEST_TIMEOUT = 120.0
DEFAULT_SPAWN_TIMEOUT = 120.0
_SHUTDOWN_GRACE = 5.0


def _default_start_method() -> str:
    """Prefer ``forkserver``: cheap forks from a warm server *and* no
    inheritance of the coordinator's sockets (a fork-inherited duplicate
    of another worker's connection would keep that worker from ever
    seeing EOF after a coordinator crash)."""
    methods = multiprocessing.get_all_start_methods()
    return "forkserver" if "forkserver" in methods else "spawn"


class WorkerHandle:
    """The shard endpoint of the process shape: one worker's connection,
    liveness and shutdown."""

    def __init__(
        self,
        shard_id: int,
        conn: Connection,
        coordinator: "ClusterCoordinator",
        *,
        process: Any = None,
        pid: Optional[int] = None,
        address: Optional[Tuple[str, int]] = None,
    ) -> None:
        self.shard_id = shard_id
        self.conn = conn
        self.process = process
        self.pid = pid
        self.address = address
        self.broken = False
        #: cumulative seconds the coordinator spent blocked on this
        #: worker's replies (operational telemetry; bench_cluster derives
        #: the coordinator-stage time of its pipeline model from it)
        self.blocked_seconds = 0.0
        #: worker-reported handler wall time of the most recent reply
        #: (from the reply meta envelope; 0.0 before the first reply)
        self.last_op_seconds = 0.0
        #: cumulative worker-side ingest compute (``write`` replies)
        self.worker_ingest_seconds = 0.0
        self._coordinator = coordinator
        self._metrics = coordinator.metrics
        self._op_counters: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def describe(self) -> str:
        if self.address is not None:
            return f"at {self.address[0]}:{self.address[1]} (pid {self.pid})"
        return f"(spawned, pid {self.pid})"

    @property
    def alive(self) -> bool:
        if self.broken:
            return False
        if self.process is not None:
            return self.process.is_alive()
        return not self.conn.closed

    def _check(self) -> None:
        if self.broken:
            raise WorkerCrashError(
                f"shard {self.shard_id} worker {self.describe()} is gone "
                "(earlier transport failure)"
            )

    def _fail(self, error: BaseException, op: str) -> None:
        self.broken = True
        self._coordinator._mark_broken(
            f"shard {self.shard_id} worker {self.describe()} failed during {op!r}"
        )
        raise WorkerCrashError(
            f"shard {self.shard_id} worker {self.describe()} died or stopped "
            f"responding during {op!r}: {error}"
        ) from error

    # ------------------------------------------------------------------
    def send_request(self, op: str, payload: Any = None) -> None:
        """First half of a pipelined request (reply via :meth:`recv_reply`).

        The caller's trace context (if a span is open) rides along in the
        frame meta, so worker-side spans stitch into the caller's tree;
        retries of the same logical request reship the *same* context.
        """
        self._check()
        counter = self._op_counters.get(op)
        if counter is None:
            counter = self._op_counters[op] = self._metrics.counter(
                "cluster_requests_total", op=op
            )
        counter.inc()
        trace_ctx = current_trace_context()
        try:
            self.conn.send(op, payload, {"trace": trace_ctx} if trace_ctx else None)
        except WorkerCrashError as error:
            self._fail(error, op)

    def recv_reply(self, op: str) -> Any:
        """Await the reply of an earlier :meth:`send_request`.

        Worker-side *operation* errors re-raise as their own library
        types (the stream stays aligned — the worker survives them);
        transport errors mark the worker, and the cluster, broken.

        The reply meta envelope is unpacked here: ``seconds`` lands in
        :attr:`last_op_seconds` (even for error replies), and in
        :attr:`worker_ingest_seconds` for row writes, and shipped-back
        worker spans are adopted into the coordinator's tracer.
        """
        started = time.perf_counter()
        try:
            return self.conn.recv_reply(context=f"shard {self.shard_id} op {op!r}")
        except WorkerCrashError as error:
            self._fail(error, op)
        finally:
            self.blocked_seconds += time.perf_counter() - started
            meta = self.conn.last_meta
            self.last_op_seconds = float(meta.get("seconds", 0.0))
            if op == "write":
                self.worker_ingest_seconds += self.last_op_seconds
            spans = meta.get("spans")
            if spans:
                get_tracer().adopt(spans)

    # ------------------------------------------------------------------
    def stop(self, *, graceful: bool = True) -> None:
        """End the session and reap the process; never hangs, never raises."""
        if not self.conn.closed:
            if graceful and not self.broken:
                with contextlib.suppress(Exception):  # reprolint: disable=R007 - best-effort goodbye to a possibly-dead peer; terminate follows either way
                    self.conn.set_timeout(_SHUTDOWN_GRACE)
                    self.conn.send("shutdown")
                    self.conn.recv()
            self.conn.close()
        if self.process is not None:
            self.process.join(timeout=_SHUTDOWN_GRACE)
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=2.0)
            if self.process.is_alive():  # pragma: no cover - last resort
                self.process.kill()
                self.process.join(timeout=1.0)


class ClusterCoordinator(ShardedMutableIndex):
    """A :class:`ShardedMutableIndex` served by one worker process per shard.

    Parameters beyond the inherited ones
    ------------------------------------
    addresses:
        ``["host:port", …]`` of pre-started ``repro worker`` processes,
        one per shard.  When omitted (the default) the coordinator
        spawns local worker processes itself and reaps them on
        :meth:`close`.
    token:
        Shared handshake secret.  Auto-generated for spawned workers;
        for external workers pass the value their ``--token`` expects.
    request_timeout:
        Seconds before a pending worker reply raises
        :class:`~repro.errors.WorkerCrashError` instead of blocking
        forever.
    start_method:
        ``multiprocessing`` start method for spawned workers (default:
        ``forkserver`` where available, else ``spawn`` — both keep the
        coordinator's sockets out of the children).
    """

    def __init__(
        self,
        dimension: int,
        *,
        num_shards: int = 4,
        num_hashes: int = 20,
        family: Any = "cosine",
        random_state: RandomState = None,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._init_cluster_plumbing(
            int(num_shards),
            addresses=addresses,
            token=token,
            request_timeout=request_timeout,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
            metrics=metrics,
        )
        try:
            super().__init__(
                dimension,
                num_shards=num_shards,
                num_hashes=num_hashes,
                family=family,
                random_state=random_state,
            )
        except BaseException:  # reprolint: disable=R007 - cleanup-and-reraise
            # never leak worker processes from a half-built coordinator
            self.close()
            raise

    def _init_cluster_plumbing(
        self,
        num_shards: int,
        *,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]],
        token: Optional[str],
        request_timeout: Optional[float],
        spawn_timeout: float,
        start_method: Optional[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._metrics = metrics  # resolved lazily by the `metrics` property
        self.shards = []
        self._closed = False
        self._addresses = (
            [parse_address(a) if isinstance(a, str) else (str(a[0]), int(a[1])) for a in addresses]
            if addresses
            else None
        )
        if self._addresses is not None and len(self._addresses) != num_shards:
            raise ValidationError(
                f"got {len(self._addresses)} worker addresses for "
                f"{num_shards} shards (need exactly one each)"
            )
        self._token = token if token is not None else secrets.token_hex(16)
        self._request_timeout = request_timeout
        self._spawn_timeout = float(spawn_timeout)
        self._start_method = start_method
        self._mp_context = None
        self._listener: Optional[socket.socket] = None
        if self._addresses is None:
            self._listener = socket.create_server(("127.0.0.1", 0))
            self._listener.settimeout(1.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def _handles(self) -> List[WorkerHandle]:
        """The shards: one worker handle each."""
        return cast(List[WorkerHandle], self.shards)

    def _check_usable(self) -> None:
        if self._closed:
            raise ClusterError("the cluster coordinator is closed")
        super()._check_usable()

    def close(self) -> None:
        """Shut down every worker; idempotent, never hangs.

        Healthy workers get the ``shutdown`` handshake; broken ones (or
        any that ignore it) are terminated and, as a last resort,
        killed.  Spawned processes are always reaped.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._handles:
            handle.stop(graceful=self._broken is None)
        if self._listener is not None:
            with contextlib.suppress(OSError):
                self._listener.close()
            self._listener = None

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()

    @property
    def worker_infos(self) -> List[Dict[str, Any]]:
        """Shard → worker diagnostics (pid, endpoint, liveness)."""
        return [
            {
                "shard_id": handle.shard_id,
                "pid": handle.pid,
                "address": None
                if handle.address is None
                else f"{handle.address[0]}:{handle.address[1]}",
                "spawned": handle.process is not None,
                "alive": handle.alive,
            }
            for handle in self._handles
        ]

    def stats(self) -> Dict[str, Any]:
        """Cluster-wide operational statistics in one batched round trip.

        Sends ``stats`` (with the metrics opt-in) to every worker before
        awaiting any reply — the fan-out costs one round-trip latency,
        not one per shard.  Returns per-worker rows (size,
        :attr:`WorkerHandle.blocked_seconds`,
        :attr:`WorkerHandle.worker_ingest_seconds`) plus a single
        merged metrics snapshot: the coordinator's own registry folded
        together with every worker's process-global registry.
        """
        with trace("cluster.stats", shards=len(self.shards)):
            replies = self._fan_out("stats", self._to_every_shard({"metrics": True}))
            merged = self.metrics.snapshot()
            workers: List[Dict[str, Any]] = []
            for handle, reply in zip(self._handles, replies):
                worker_metrics = reply.pop("metrics", None)
                if worker_metrics:
                    merged = merged.merge(MetricsSnapshot.from_dict(worker_metrics))
                row: Dict[str, Any] = {
                    "shard_id": handle.shard_id,
                    "pid": handle.pid,
                    "address": None
                    if handle.address is None
                    else f"{handle.address[0]}:{handle.address[1]}",
                    "alive": handle.alive,
                    "blocked_seconds": handle.blocked_seconds,
                    "worker_ingest_seconds": handle.worker_ingest_seconds,
                    "size": reply["size"],
                }
                workers.append(row)
            return {"workers": workers, "metrics": merged.to_dict()}

    # ------------------------------------------------------------------
    # worker construction
    # ------------------------------------------------------------------
    def _context(self) -> Any:
        if self._mp_context is None:
            method = self._start_method or _default_start_method()
            context = multiprocessing.get_context(method)
            if method == "forkserver":
                # pre-import the worker stack (numpy/scipy) once, so
                # every later worker forks from a warm server
                with contextlib.suppress(Exception):  # reprolint: disable=R007 - preload is a warm-up optimisation; a cold forkserver is still correct
                    context.set_forkserver_preload(["repro.cluster.worker"])
            self._mp_context = context
        return self._mp_context

    def _spawn_worker(self, shard_id: int) -> WorkerHandle:
        host, port = self._listener.getsockname()[:2]
        process = self._context().Process(
            target=run_spawned_worker,
            args=(host, port, self._token, shard_id),
            name=f"repro-shard-{shard_id}",
            daemon=True,
        )
        process.start()
        deadline = time.monotonic() + self._spawn_timeout
        while True:
            try:
                client, _peer = self._listener.accept()
                break
            except socket.timeout:
                if process.exitcode is not None:
                    raise WorkerCrashError(
                        f"shard {shard_id} worker exited with code "
                        f"{process.exitcode} before connecting"
                    ) from None
                if time.monotonic() > deadline:
                    process.terminate()
                    raise WorkerCrashError(
                        f"shard {shard_id} worker did not connect within "
                        f"{self._spawn_timeout:.0f}s"
                    ) from None
        conn = Connection(client, timeout=self._request_timeout, metrics=self.metrics)
        try:
            op, payload, _meta = conn.recv()
            if op != "hello":
                raise ClusterError(f"expected worker 'hello', got {op!r}")
            payload = payload or {}
            if payload.get("token") != self._token:
                raise ClusterError("a connecting worker presented a wrong token")
            if int(payload.get("protocol", -1)) != PROTOCOL_VERSION:
                raise ClusterError(
                    f"worker speaks protocol {payload.get('protocol')!r}, "
                    f"coordinator speaks {PROTOCOL_VERSION}"
                )
            if int(payload.get("shard_id", -1)) != shard_id:
                raise ClusterError(
                    f"worker identified as shard {payload.get('shard_id')!r}, "
                    f"expected {shard_id}"
                )
            conn.send("ok", {"protocol": PROTOCOL_VERSION})
        except BaseException:  # reprolint: disable=R007 - never leak the spawned process on a failed handshake
            conn.close()
            process.terminate()
            raise
        return WorkerHandle(
            shard_id, conn, self, process=process, pid=payload.get("pid")
        )

    def _connect_external(self, shard_id: int) -> WorkerHandle:
        if shard_id >= len(self._addresses):
            raise ClusterError(
                f"no worker address for shard {shard_id}: an address-connected "
                f"cluster cannot grow beyond its {len(self._addresses)} "
                "configured workers"
            )
        address = self._addresses[shard_id]
        try:
            sock = socket.create_connection(address, timeout=self._request_timeout)
        except OSError as error:
            raise WorkerCrashError(
                f"cannot reach the shard {shard_id} worker at "
                f"{address[0]}:{address[1]}: {error}"
            ) from error
        conn = Connection(sock, timeout=self._request_timeout, metrics=self.metrics)
        try:
            conn.send(
                "hello",
                {"protocol": PROTOCOL_VERSION, "token": self._token, "shard_id": shard_id},
            )
            payload = conn.recv_reply(context=f"handshake with shard {shard_id}")
        except BaseException:  # reprolint: disable=R007 - close the socket on a failed handshake before re-raising
            conn.close()
            raise
        return WorkerHandle(
            shard_id, conn, self, pid=(payload or {}).get("pid"), address=address
        )

    def _connect(self, shard_id: int) -> WorkerHandle:
        """Spawn (or dial) the worker of one shard; the facade then
        configures or restores it."""
        if self._addresses is not None:
            return self._connect_external(shard_id)
        return self._spawn_worker(shard_id)

    def drop_trailing_shards(self, new_total: int) -> None:
        dropped = self._handles[new_total:]
        super().drop_trailing_shards(new_total)  # validates emptiness first
        for handle in dropped:
            handle.stop(graceful=True)

    def commit_batch(self, batch: PreparedBatch) -> np.ndarray:
        """Apply a prepared batch with every worker storing its rows in parallel.

        All shard slices are *sent* before any reply is awaited, so the
        workers store their rows in parallel.  A failure mid-commit (a
        transport failure or a worker op error) leaves shard slices
        partially applied, so it marks the cluster broken — the router
        layer above then refuses further flushes, exactly like an
        in-process partial commit.
        Defined here so the commit of this shape has a name of its own
        for tracing.
        """
        return super().commit_batch(batch)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls,
        state: Mapping[str, Any],
        *,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ClusterCoordinator":
        """Revive a cluster from a :meth:`ShardedMutableIndex.to_state` snapshot.

        Snapshots are portable across deployment shapes: the same state
        an in-process cluster writes restores here (each shard's row
        state is shipped to a fresh worker), and vice versa.  The whole
        snapshot is checked before any worker is spawned.
        """
        cluster = cls.__new__(cls)
        cluster._restore_facade(state)
        cluster._init_cluster_plumbing(
            int(state["num_shards"]),
            addresses=addresses,
            token=token,
            request_timeout=request_timeout,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
            metrics=metrics,
        )
        try:
            cluster._restore_shards(state)
        except BaseException:  # reprolint: disable=R007 - unwind the half-restored cluster before re-raising
            cluster.close()
            raise
        return cluster

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "closed" if self._closed else ("broken" if self._broken else "live")
        return (
            f"ClusterCoordinator(n={self.size}, shards={self.num_shards}, "
            f"d={self.dimension}, k={self.num_hashes}, {status})"
        )


__all__ = [
    "ClusterCoordinator",
    "WorkerHandle",
    "DEFAULT_REQUEST_TIMEOUT",
]
