"""The cluster coordinator: a ``ShardedMutableIndex`` whose shards are processes.

:class:`ClusterCoordinator` subclasses
:class:`~repro.shard.sharded_index.ShardedMutableIndex` and swaps the
in-process row stores for **worker processes**: each
:class:`~repro.shard.sharded_index.IndexShard` holds a
:class:`RemoteRowStore` over one :mod:`repro.cluster.worker` process,
which keeps the shard's rows and speaks the length-prefixed pickle
protocol of :mod:`repro.cluster.transport`.  Everything above the shard
boundary — hashing, bucket-key routing, the global bucket table and its
owners, SampleH / SampleL, the per-shard counters, rebalance planning,
the facade estimator and its reservoirs — is inherited *unchanged*,
which is what keeps every estimate of a process cluster bit-identical
to an in-process one (and exact-mode estimates to an unsharded
estimator) for the same seed:

* the coordinator owns the hash family; a worker holds ids and rows
  only, so no family or signature crosses the wire;
* every sampling draw runs on the coordinator's global bucket table,
  consuming its generator exactly as in process, so SampleH, SampleL's
  collision tests and the estimator repairs never cost a round trip;
* the three row seams go over the wire as fan-outs that send every
  request before awaiting any reply: :meth:`_store_rows`
  (``insert_prepared``), :meth:`_drop_rows` (``delete``) and
  :meth:`_fetch_rows` (``gather_rows``).  Every mutating reply carries
  the worker's row count, which the facade checks against its own count
  for that shard.

Ingest is where the processes pay off: :meth:`commit_batch` *pipelines*
a routed batch — every worker receives its slice before any reply is
awaited, and the coordinator performs its own merge bookkeeping while
the workers store their rows in parallel (real parallelism: separate
processes, no GIL).

Failure model: every request carries a timeout; a worker that crashed or
hung raises :class:`~repro.errors.WorkerCrashError` naming the shard
instead of hanging the coordinator.  A transport failure, or a worker op
error in a row insert or delete (a commit, a delete or a rebalance
migration whose other requests may have applied), marks the whole
cluster *broken*: further operations raise, and :meth:`close` falls back
from the graceful shutdown handshake to terminating the worker
processes.  ``close`` is idempotent and always reaps every spawned
process.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import secrets
import socket
import time
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

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
from repro.shard.sharded_index import (
    CSRParts,
    IndexShard,
    PreparedBatch,
    ShardedMutableIndex,
)
from repro.streaming.mutable_index import restore_estimator_states

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
    """One worker process/endpoint: connection, liveness, shutdown."""

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
        self._coordinator._check_usable()

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
        :attr:`last_op_seconds` (even for error replies) and shipped-back
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
            spans = meta.get("spans")
            if spans:
                get_tracer().adopt(spans)

    def request(self, op: str, payload: Any = None) -> Any:
        self.send_request(op, payload)
        return self.recv_reply(op)

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


class RemoteRowStore:
    """The row-store methods the facade calls directly, served by a worker.

    Row inserts, deletes and gathers never come through here: the
    coordinator's row seams fan those out to every worker at once.
    """

    def __init__(self, handle: WorkerHandle) -> None:
        self._handle = handle
        #: cumulative worker-side ingest compute (from insert replies)
        self.worker_ingest_seconds = 0.0

    def ids(self) -> np.ndarray:
        return np.asarray(self._handle.request("ids")["ids"], dtype=np.int64)

    def state(self) -> Dict[str, Any]:
        return self._handle.request("snapshot")["state"]

    def check_invariants(self) -> None:
        self._handle.request("check")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RemoteRowStore(shard={self._handle.shard_id}, "
            f"worker={self._handle.describe()})"
        )


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
        partitioner: Any = "modulo",
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        token: Optional[str] = None,
        request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
        spawn_timeout: float = DEFAULT_SPAWN_TIMEOUT,
        start_method: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._init_cluster_plumbing(
            addresses=addresses,
            token=token,
            request_timeout=request_timeout,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
            metrics=metrics,
        )
        if self._addresses is not None and len(self._addresses) != int(num_shards):
            self.close()
            raise ValidationError(
                f"got {len(self._addresses)} worker addresses for "
                f"{num_shards} shards (need exactly one each)"
            )
        try:
            super().__init__(
                dimension,
                num_shards=num_shards,
                num_hashes=num_hashes,
                family=family,
                random_state=random_state,
                partitioner=partitioner,
            )
        except BaseException:  # reprolint: disable=R007 - cleanup-and-reraise
            # never leak worker processes from a half-built coordinator
            self.close()
            raise

    def _init_cluster_plumbing(
        self,
        *,
        addresses: Optional[Sequence[Union[str, Tuple[str, int]]]],
        token: Optional[str],
        request_timeout: Optional[float],
        spawn_timeout: float,
        start_method: Optional[str],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._metrics = metrics  # resolved lazily by the `metrics` property
        self._handles: List[WorkerHandle] = []
        self._broken: Optional[str] = None
        self._closed = False
        self._addresses = (
            [parse_address(a) if isinstance(a, str) else (str(a[0]), int(a[1])) for a in addresses]
            if addresses
            else None
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
    # lifecycle / failure bookkeeping
    # ------------------------------------------------------------------
    def _check_usable(self) -> None:
        if self._closed:
            raise ClusterError("the cluster coordinator is closed")
        if self._broken is not None:
            raise ClusterError(
                f"the cluster is broken ({self._broken}); its state may be "
                "partially applied — restore a snapshot onto a fresh cluster"
            )

    def _mark_broken(self, reason: str) -> None:
        if self._broken is None:
            self._broken = reason

    @property
    def broken(self) -> Optional[str]:
        """Why the cluster became unusable, or ``None`` while healthy."""
        return self._broken

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
        :attr:`RemoteRowStore.worker_ingest_seconds`) plus a single
        merged metrics snapshot: the coordinator's own registry folded
        together with every worker's process-global registry.
        """
        self._check_usable()
        with trace("cluster.stats", shards=len(self.shards)):
            replies = self._fan_out(
                "stats", [(handle, {"metrics": True}) for handle in self._handles]
            )
            merged = self.metrics.snapshot()
            workers: List[Dict[str, Any]] = []
            for shard, handle, reply in zip(self.shards, self._handles, replies):
                reply = dict(reply)
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
                    "worker_ingest_seconds": shard.store.worker_ingest_seconds,
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

    def _connect_worker(self, shard_id: int) -> WorkerHandle:
        if self._addresses is not None:
            return self._connect_external(shard_id)
        return self._spawn_worker(shard_id)

    def _new_shard(self, shard_id: int) -> IndexShard:
        """Bring up (or dial) one worker and configure its empty row store."""
        handle = self._connect_worker(shard_id)
        try:
            handle.request("configure", {"shard_id": shard_id, "dimension": self.dimension})
        except BaseException:  # reprolint: disable=R007 - reap the worker whose bootstrap failed before re-raising
            handle.stop(graceful=False)
            raise
        self._handles.append(handle)
        return IndexShard(shard_id, RemoteRowStore(handle))

    def drop_trailing_shards(self, new_total: int) -> None:
        dropped = self._handles[new_total:]
        super().drop_trailing_shards(new_total)  # validates emptiness first
        for handle in dropped:
            handle.stop(graceful=True)
        del self._handles[new_total:]

    # ------------------------------------------------------------------
    # the row seams (one batched round trip per shard)
    # ------------------------------------------------------------------
    def _fan_out(
        self,
        op: str,
        requests: Sequence[Tuple[WorkerHandle, Any]],
        *,
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List[Any]:
        """Send ``op`` with every ``(handle, payload)``, then await every reply.

        ``meanwhile`` runs between the sends and the first await.  A
        worker op error re-raises only once every reply sent has been
        read, so no connection is left holding a stale reply.
        """
        for handle, payload in requests:
            handle.send_request(op, payload)
        if meanwhile is not None:
            meanwhile()
        replies: List[Any] = []
        first_error: Optional[Exception] = None
        for handle, _payload in requests:
            try:
                replies.append(handle.recv_reply(op))
            except Exception as error:  # reprolint: disable=R007 - read the rest, then re-raise
                replies.append(None)
                first_error = first_error or error
        if first_error is not None:
            raise first_error
        return replies

    @contextlib.contextmanager
    def _breaks_on_failure(self, op: str) -> Iterator[None]:
        """Mark the cluster broken when a row insert or delete fails: the
        other requests of the fan-out (or the call) may have applied."""
        try:
            yield
        except Exception as error:  # reprolint: disable=R007 - mark broken and re-raise
            self._mark_broken(f"{op} failed: {error}")
            raise

    def _store_rows(
        self,
        requests: Sequence[Tuple[int, np.ndarray, sparse.csr_matrix]],
        *,
        meanwhile: Optional[Callable[[], None]] = None,
    ) -> List[int]:
        with self._breaks_on_failure("insert_prepared"):
            replies = self._fan_out("insert_prepared", [
                (self._handles[shard_id], {"ids": ids, "csr": rows})
                for shard_id, ids, rows in requests
            ], meanwhile=meanwhile)
        for shard_id, _ids, _rows in requests:
            store = self.shards[shard_id].store
            store.worker_ingest_seconds += self._handles[shard_id].last_op_seconds
        return [int(reply["size"]) for reply in replies]

    def _drop_rows(self, requests: Sequence[Tuple[int, np.ndarray]]) -> List[int]:
        with self._breaks_on_failure("delete"):
            # a list pickles in a tenth of the time of a one-element array
            replies = self._fan_out("delete", [
                (self._handles[shard_id], {"ids": ids.tolist()}) for shard_id, ids in requests
            ])
        return [int(reply["size"]) for reply in replies]

    def _fetch_rows(
        self, requests: Sequence[Tuple[int, np.ndarray]], *, normalized: bool
    ) -> List[CSRParts]:
        replies = self._fan_out("gather_rows", [
            (self._handles[shard_id], {"ids": ids, "normalized": normalized})
            for shard_id, ids in requests
        ])
        return [
            (reply["matrix"].data, reply["matrix"].indices, reply["matrix"].indptr)
            for reply in replies
        ]

    # ------------------------------------------------------------------
    # mutation (pipelined through the row seams)
    # ------------------------------------------------------------------
    def delete(self, vector_id: int) -> None:
        self._check_usable()
        super().delete(vector_id)

    def commit_batch(self, batch: PreparedBatch) -> np.ndarray:
        """Apply a prepared batch with every worker storing its rows in parallel.

        All shard slices are *sent* before any reply is awaited, and the
        coordinator does its own merge bookkeeping while the workers
        store their rows.  A failure mid-commit (a transport failure or a
        worker op error) leaves shard slices partially applied, so it
        marks the cluster broken — the router layer above then refuses
        further flushes, exactly like an in-process partial commit.
        """
        self._check_usable()
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
            addresses=addresses,
            token=token,
            request_timeout=request_timeout,
            spawn_timeout=spawn_timeout,
            start_method=start_method,
            metrics=metrics,
        )
        try:
            num_shards = int(state["num_shards"])
            if cluster._addresses is not None and len(cluster._addresses) != num_shards:
                raise ValidationError(
                    f"got {len(cluster._addresses)} worker addresses for a "
                    f"{num_shards}-shard snapshot"
                )
            cluster.shards = []
            for shard_id, shard_state in enumerate(state["shards"]):
                handle = cluster._connect_worker(shard_id)
                cluster._handles.append(handle)
                reply = handle.request("restore", {"state": shard_state, "shard_id": shard_id})
                cluster._check_sizes([shard_id], [reply["size"]])
                cluster.shards.append(IndexShard(shard_id, RemoteRowStore(handle)))
            restore_estimator_states(cluster, state.get("estimators", ()))
        except BaseException:  # reprolint: disable=R007 - unwind the half-restored cluster before re-raising
            cluster.close()
            raise
        return cluster

    # ------------------------------------------------------------------
    # verification
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify the facade's bookkeeping against every worker's rows."""
        self._check_usable()
        super().check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "closed" if self._closed else ("broken" if self._broken else "live")
        return (
            f"ClusterCoordinator(n={self.size}, shards={self.num_shards}, "
            f"d={self.dimension}, k={self.num_hashes}, {status})"
        )


__all__ = [
    "ClusterCoordinator",
    "RemoteRowStore",
    "WorkerHandle",
    "DEFAULT_REQUEST_TIMEOUT",
]
