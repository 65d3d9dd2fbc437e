"""Event routing into a sharded index: replay + batched ingestion.

:class:`ShardRouter` is the write path of the sharded deployment.  It
accepts the same event stream a single
:class:`~repro.streaming.mutable_index.MutableLSHIndex` would (inserts,
deletes, checkpoints — usually replayed from a
:class:`~repro.streaming.events.ChangeLog`) and applies it to a
:class:`~repro.shard.sharded_index.ShardedMutableIndex`:

* **inserts buffer** up to ``batch_size`` rows; a flush coerces the
  buffered vectors, hashes them in one batch matrix product, partitions
  the rows by bucket key, and hands every shard its slice of rows in one
  request (:meth:`ShardedMutableIndex.commit_batch`; in process one shard
  after another, the ``process`` backend is the parallel path);
* **deletes flush first** — a delete may target a still-buffered row, so
  buffered inserts are materialised before the delete is routed;
* **checkpoints flush** and, when an estimator is attached to the
  replay, emit an estimate.

The batch grouping preserves arrival order within every bucket, so the
replayed cluster reaches exactly the bucket layout — and therefore the
same exact-mode estimates — as an unsharded index fed the same log.
"""

from __future__ import annotations

import time
from typing import Any, List, Optional, Tuple

from repro.core.base import SimilarityJoinSizeEstimator

from scipy import sparse

from repro.errors import StrandedWritesError, ValidationError
from repro.obs.metrics import MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.rng import RandomState, ensure_rng
from repro.shard.sharded_index import ShardedMutableIndex
from repro.streaming.events import ChangeLog, Checkpoint, Delete, Insert
from repro.streaming.mutable_index import VectorInput, coerce_row


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
        self._events_routed = 0
        #: set when a batch commit raised partway — shard slices may be
        #: applied while the facade saw nothing, so a retry would claim
        #: fresh ids and ingest those rows a second time
        self._commit_failed = False

    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of buffered (not yet flushed) inserts."""
        return len(self._pending_rows)

    @property
    def events_routed(self) -> int:
        """Total insert/delete events applied (flushed inserts only)."""
        return self._events_routed

    @property
    def commit_failed(self) -> bool:
        """True after a batch commit raised partway (see :meth:`flush`)."""
        return self._commit_failed

    def drain_pending(self) -> List[sparse.csr_matrix]:
        """Take the buffered (never applied) insert rows out of the router.

        Returns the 1×d CSR rows in arrival order and clears the buffer —
        after a partial commit failure this is how callers recover the
        inserts that can no longer be flushed here (re-route them to a
        fresh cluster); a subsequent :meth:`close` then has nothing to
        strand and succeeds.
        """
        rows = self._pending_rows
        self._pending_rows = []
        return rows

    def insert(self, vector: VectorInput) -> None:
        """Buffer one insert; flushes automatically at ``batch_size``."""
        self._pending_rows.append(coerce_row(vector, self.index.dimension))
        if len(self._pending_rows) >= self.batch_size:
            self.flush()

    def delete(self, vector_id: int) -> None:
        """Flush buffered inserts, then route the delete to its shard."""
        self.flush()
        self.index.delete(vector_id)
        self._events_routed += 1
        self._routed_events.inc()

    def flush(self) -> int:
        """Hash, partition, and ingest the buffered inserts; returns the count.

        The buffer is cleared only after the batch commits.  A failure
        *before* the commit (e.g. while coercing a later event) leaves
        the buffer intact and retryable; a failure *during* the commit
        may have applied some shard slices already, so the router
        refuses further flushes instead of re-claiming ids and
        ingesting those rows twice — recover by replaying the log onto
        a fresh cluster (replay semantics, not transactions).
        """
        if not self._pending_rows:
            return 0
        if self._commit_failed:
            raise ValidationError(
                "a previous batch commit failed partway; the cluster may hold "
                "a partial batch — replay the log onto a fresh cluster instead "
                "of retrying this router"
            )
        if len(self._pending_rows) == 1:
            stacked = self._pending_rows[0]
        else:
            stacked = sparse.vstack(self._pending_rows, format="csr")
        count = len(self._pending_rows)
        started = time.perf_counter()
        with trace("router.flush", rows=count):
            # buffered rows are coerce_row output: canonical by construction
            batch = self.index.prepare_batch(stacked, coerced=True)
            try:
                self.index.commit_batch(batch)
            except BaseException:  # reprolint: disable=R007 - any escape here means buffered rows may be lost; latch the failure flag before re-raising
                self._commit_failed = True
                raise
        self._flush_seconds.observe(time.perf_counter() - started)
        self._flushed_rows.inc(count)
        self._routed_events.inc(count)
        self._pending_rows = []
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
        or an event fails to apply: inserts buffered before the failing
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
        """Flush remaining inserts.

        Idempotent, and the router stays usable: later ``flush`` /
        ``close`` calls ingest as before, so no buffered insert can be
        stranded by closing twice or by writing after close.

        After a partial commit failure the final flush cannot run
        (retrying would double-ingest; see :meth:`flush`).  Rows still
        buffered at that point are **not** silently dropped: they are
        drained and :class:`~repro.errors.StrandedWritesError` is raised
        carrying them, so callers always learn which inserts were never
        applied (call :meth:`drain_pending` first to recover them and
        close quietly).
        """
        if not self._commit_failed:
            self.flush()
        if self._commit_failed and self._pending_rows:
            stranded = self.drain_pending()
            raise StrandedWritesError(
                f"closing after a partial batch-commit failure strands "
                f"{len(stranded)} buffered insert(s) that were never applied; "
                "they are attached as .pending_rows — replay them onto a "
                "fresh cluster",
                pending_rows=stranded,
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


__all__ = ["ShardRouter"]
