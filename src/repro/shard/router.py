"""Event routing into a sharded index: replay + batched ingestion.

:class:`ShardRouter` is the write path of the sharded deployment.  It
accepts the same event stream a single
:class:`~repro.streaming.mutable_index.MutableLSHIndex` would (inserts,
deletes, checkpoints — usually replayed from a
:class:`~repro.streaming.events.ChangeLog`) and applies it to a
:class:`~repro.shard.sharded_index.ShardedMutableIndex`:

* **inserts and deletes buffer** together, in arrival order, up to
  ``batch_size`` events; a flush hashes the buffered rows in one batch
  matrix product, partitions them by bucket key, and hands every touched
  shard the rows it owns and the ids it drops in one request
  (:meth:`ShardedMutableIndex.commit_batch`; in process one shard after
  another, the ``process`` backend is the parallel path).  A row
  inserted and deleted within the buffer never reaches a shard;
* **a delete is checked when it is buffered**: it must target a live
  id not yet deleted in the buffer, or the id a buffered insert will
  get — anything else raises at once and buffers nothing;
* **checkpoints flush** and, when an estimator is attached to the
  replay, emit an estimate.

Buffered writes become visible at the flush.  The facade applies the
flushed batch in arrival order, so the replayed cluster reaches exactly
the bucket layout and observer sequence — and therefore the same
estimates — as an unsharded index fed the same log with the same flush
points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, List, Optional, Set, Tuple

from repro.core.base import SimilarityJoinSizeEstimator

from scipy import sparse

from repro.errors import StrandedWritesError, ValidationError
from repro.obs.metrics import MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.rng import RandomState, ensure_rng
from repro.shard.sharded_index import ShardedMutableIndex
from repro.streaming.events import ChangeLog, Checkpoint, Delete, Insert
from repro.vectors.collection import VectorInput, coerce_row


@dataclass(frozen=True)
class PendingWrites:
    """Buffered writes that were never applied, each kind in arrival order."""

    #: the inserts' 1×d CSR rows
    rows: List[sparse.csr_matrix]
    #: the deletes' vector ids
    deletes: List[int]

    def __len__(self) -> int:
        """The number of drained writes, inserts and deletes."""
        return len(self.rows) + len(self.deletes)


class ShardRouter:
    """Buffered, batch-hashing writer for a :class:`ShardedMutableIndex`."""

    def __init__(
        self,
        index: ShardedMutableIndex,
        *,
        batch_size: int = 256,
        # accepted and ignored: benchmarks/ledger/workloads.py still passes it
        max_workers: Optional[int] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
        self.index = index
        self.batch_size = int(batch_size)
        registry = metrics if metrics is not None else get_global_registry()
        # handles cached here: flush-path instrumentation never touches
        # the registry lock
        self._flush_seconds = registry.histogram("router_flush_seconds")
        self._flushed_rows = registry.counter("router_flushed_rows_total")
        self._routed_events = registry.counter("router_events_total")
        self._pending_rows: List[sparse.csr_matrix] = []
        #: ``(after, vector_id)``: a delete that arrived after the first
        #: ``after`` buffered inserts (:class:`PreparedBatch` ``deletes``)
        self._pending_deletes: List[Tuple[int, int]] = []
        self._deleted_ids: Set[int] = set()
        self._events_routed = 0
        #: set when a batch commit raised partway — shard slices may be
        #: applied while the facade saw nothing, so a retry would claim
        #: fresh ids and ingest those rows a second time
        self._commit_failed = False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of buffered (not yet flushed) inserts and deletes."""
        return len(self._pending_rows) + len(self._pending_deletes)

    @property
    def events_routed(self) -> int:
        """Total insert/delete events applied (flushed events only)."""
        return self._events_routed

    @property
    def commit_failed(self) -> bool:
        """True after a batch commit raised partway (see :meth:`flush`)."""
        return self._commit_failed

    def drain_pending(self) -> PendingWrites:
        """Take the buffered (never applied) writes out of the router.

        Returns the insert rows and the delete ids, each in arrival
        order, and clears the buffer — after a partial commit failure
        this is how callers recover the writes that can no longer be
        flushed here (re-route them to a fresh cluster); a subsequent
        :meth:`close` then has nothing to strand and succeeds.
        """
        drained = PendingWrites(
            self._pending_rows, [vector_id for _after, vector_id in self._pending_deletes]
        )
        self._pending_rows = []
        self._pending_deletes = []
        self._deleted_ids = set()
        return drained

    def insert(self, vector: VectorInput) -> None:
        """Buffer one insert; flushes automatically at ``batch_size``."""
        self._pending_rows.append(coerce_row(vector, self.index.dimension))
        if self.pending >= self.batch_size:
            self.flush()

    def delete(self, vector_id: int) -> None:
        """Buffer one delete; flushes automatically at ``batch_size``.

        The id must be live and not already deleted in the buffer, or be
        the id a buffered insert will get; anything else raises
        :class:`~repro.errors.ValidationError` and buffers nothing.
        """
        vector_id = int(vector_id)
        first_buffered = self.index.next_id
        buffered = first_buffered <= vector_id < first_buffered + len(self._pending_rows)
        if vector_id in self._deleted_ids or not (buffered or vector_id in self.index):
            raise ValidationError(f"vector id {vector_id} is not in the index")
        self._pending_deletes.append((len(self._pending_rows), vector_id))
        self._deleted_ids.add(vector_id)
        if self.pending >= self.batch_size:
            self.flush()

    def flush(self) -> int:
        """Hash, partition, and apply the buffered writes; returns their count.

        The buffer is cleared only after the batch commits.  A failure
        *before* the commit (e.g. while coercing a later event) leaves
        the buffer intact and retryable; a failure *during* the commit
        may have applied some shard slices already, so the router
        refuses further flushes instead of re-claiming ids and
        ingesting those rows twice — recover by replaying the log onto
        a fresh cluster (replay semantics, not transactions).
        """
        count = self.pending
        if not count:
            return 0
        if self._commit_failed:
            raise ValidationError(
                "a previous batch commit failed partway; the cluster may hold "
                "a partial batch — replay the log onto a fresh cluster instead "
                "of retrying this router"
            )
        rows = self._pending_rows
        if len(rows) == 1:
            stacked = rows[0]
        elif rows:
            stacked = sparse.vstack(rows, format="csr")
        else:
            stacked = sparse.csr_matrix((0, self.index.dimension))
        started = time.perf_counter()
        with trace("router.flush", rows=len(rows), deletes=len(self._pending_deletes)):
            # buffered rows are coerce_row output: canonical by construction
            batch = self.index.prepare_batch(
                stacked, coerced=True, deletes=self._pending_deletes
            )
            try:
                self.index.commit_batch(batch)
            except BaseException:  # reprolint: disable=R007 - any escape here means buffered rows may be lost; latch the failure flag before re-raising
                self._commit_failed = True
                raise
        self._flush_seconds.observe(time.perf_counter() - started)
        self._flushed_rows.inc(len(rows))
        self._routed_events.inc(count)
        self.drain_pending()  # applied: empty the buffer
        self._events_routed += count
        return count

    # ------------------------------------------------------------------
    def replay(
        self,
        log: ChangeLog,
        *,
        estimator: Optional[SimilarityJoinSizeEstimator] = None,
        threshold: Optional[float] = None,
        mode: str = "auto",
        random_state: RandomState = None,
    ) -> List[Tuple[str, object]]:
        """Route every event of ``log`` through the buffered write path.

        At each :class:`~repro.streaming.events.Checkpoint`, when both
        ``estimator`` and ``threshold`` are given, the buffer is flushed
        and an estimate collected as ``(label, Estimate)`` — mirroring
        :meth:`ChangeLog.replay` on a single index.

        A final flush is guaranteed even when the replay ends mid-batch
        or an event fails to apply: writes buffered before the failing
        event are committed rather than silently dropped (at-least-once,
        as :meth:`flush` documents), and the original error propagates.
        """
        rng = ensure_rng(random_state)
        results: List[Tuple[str, object]] = []
        try:
            for event in log:
                if isinstance(event, Insert):
                    self.insert(event.vector)
                elif isinstance(event, Delete):
                    self.delete(event.vector_id)
                elif isinstance(event, Checkpoint):
                    self.flush()
                    if estimator is not None and threshold is not None:
                        results.append(
                            (event.label, estimator.estimate(threshold, random_state=rng, mode=mode))
                        )
                else:  # pragma: no cover - defensive
                    raise ValidationError(f"unknown event type: {type(event).__name__}")
        except BaseException as error:  # reprolint: disable=R007 - recovery flush must run before anything (even KeyboardInterrupt) propagates
            try:
                self.flush()
            except Exception as flush_error:  # reprolint: disable=R007 - chained into the original error below, never swallowed
                # the original error propagates, but the recovery-flush
                # failure must stay diagnosable: splice it into the
                # context chain (original → flush failure → whatever the
                # original was already chained to) instead of discarding
                flush_error.__context__ = error.__context__
                error.__context__ = flush_error
            raise
        self.flush()
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Flush remaining writes.

        Idempotent, and the router stays usable: later ``flush`` /
        ``close`` calls ingest as before, so no buffered write can be
        stranded by closing twice or by writing after close.

        After a partial commit failure the final flush cannot run
        (retrying would double-ingest; see :meth:`flush`).  Writes still
        buffered at that point are **not** silently dropped: they are
        drained and :class:`~repro.errors.StrandedWritesError` is raised
        carrying them, so callers always learn which inserts and deletes
        were never applied (call :meth:`drain_pending` first to recover
        them and close quietly).
        """
        if not self._commit_failed:
            self.flush()
        if self._commit_failed and self.pending:
            stranded = self.drain_pending()
            raise StrandedWritesError(
                f"closing after a partial batch-commit failure strands "
                f"{len(stranded.rows)} buffered insert(s) and "
                f"{len(stranded.deletes)} buffered delete(s) that were never "
                "applied; they are attached as .pending_rows and "
                ".pending_deletes — replay them onto a fresh cluster",
                pending_rows=stranded.rows,
                pending_deletes=stranded.deletes,
            )

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            self.close()
        except Exception as close_error:  # reprolint: disable=R007 - chained into the already-propagating exception below, never swallowed
            if exc_type is None:
                raise
            # an exception is already leaving the with-body (most likely
            # the commit failure itself): keep it primary and chain the
            # close-time error instead of masking the root cause
            close_error.__context__ = exc.__context__
            exc.__context__ = close_error

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardRouter(shards={self.index.num_shards}, batch={self.batch_size}, "
            f"pending={self.pending}, routed={self._events_routed})"
        )


__all__ = ["PendingWrites", "ShardRouter"]
