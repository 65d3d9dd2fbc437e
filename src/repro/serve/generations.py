"""One engine behind a writer-preferring readers–writer gate.

The serving problem is read-mostly: many concurrent estimate requests,
one writer ingesting.  Estimates must never observe a half-applied
batch, and the streaming estimator's lazy reservoir repair must never
run concurrently with readers.  The :class:`GenerationManager` keeps one
engine and puts a gate in front of it:

* Readers enter through :meth:`GenerationManager.read`; any number of
  them share the engine at once.  Each sees a :class:`Generation`: the
  engine plus the epoch it entered at, which cannot change until it
  leaves.
* The single writer calls :meth:`GenerationManager.commit` with the
  queued batches.  The commit stops new readers at the gate, waits for
  the readers inside to leave, applies the batches, flushes and
  quiesces (:meth:`~repro.engine.JoinEstimationEngine.quiesce` runs
  deferred reservoir maintenance so reads stay read-only), bumps the
  epoch and lets the readers back in.  A waiting commit goes ahead of
  readers that arrive after it, so a steady stream of estimates cannot
  starve ingest: a commit waits only for the reads already in flight.

Every event is applied once.  The daemon is one GIL-bound process, so a
second engine catching up in the background would not keep that work
off the read path; it would run beside the estimates.

A failed commit (e.g. a cluster transport failure mid-batch) marks the
manager **broken**.  The engine may then hold part of a batch whose
clients were told it failed, so the server refuses estimates while
``describe`` and ``stats`` keep answering, further commits are refused,
and :meth:`close` drains the buffered-but-unapplied writes *before*
closing the engine so the failure surfaces as
:class:`~repro.errors.StrandedWritesError` with the recoverable rows
and delete ids instead of losing them behind daemon exit.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence

from repro.engine.engine import JoinEstimationEngine
from repro.errors import ReproError, ServeError, StrandedWritesError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import trace


@dataclass(frozen=True)
class Generation:
    """The engine and epoch one reader sees for its whole ``read()`` block."""

    engine: JoinEstimationEngine
    epoch: int


@dataclass
class BatchResult:
    """Outcome of one queued write batch within a commit.

    ``applied`` counts mutations from this batch's sources; ``error``
    (a :class:`~repro.errors.ReproError`) is set when a source was
    rejected — earlier sources of the batch stay applied, the failing
    one and everything after it do not.
    """

    applied: int = 0
    error: Optional[BaseException] = None


class GenerationManager:
    """One engine behind a writer-preferring readers–writer gate.

    Thread contract: any number of threads may call :meth:`read`;
    exactly **one** thread calls :meth:`commit` and :meth:`close`.
    """

    def __init__(self, config: Any, *, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._engine = JoinEstimationEngine(config, metrics=self.metrics).open()
        self.config = self._engine.config
        self._cond = threading.Condition()
        self._epoch = 0
        self._readers = 0
        #: set from the moment a commit asks for the gate until it has
        #: published its epoch; readers arriving meanwhile wait
        self._writing = False
        self._broken: Optional[BaseException] = None
        self._closed = False
        self._epoch_gauge = self.metrics.gauge("serve_epoch")

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    @contextmanager
    def read(self) -> Iterator[Generation]:
        """Hold the gate for the block: no commit runs until it exits."""
        with self._cond:
            while self._writing:
                self._cond.wait()
            if self._closed:
                raise ServeError("generation manager is closed")
            self._readers += 1
            generation = Generation(self._engine, self._epoch)
        try:
            yield generation
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @property
    def epoch(self) -> int:
        with self._cond:
            return self._epoch

    @property
    def reader_count(self) -> int:
        """Readers currently inside :meth:`read`."""
        with self._cond:
            return self._readers

    @property
    def broken(self) -> Optional[BaseException]:
        """The commit failure that froze this manager, if any."""
        return self._broken

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def commit(self, batches: Sequence[Sequence[Any]]) -> List[BatchResult]:
        """Apply queued batches with the readers held off; publish an epoch.

        Each batch is one client request's sources (events or
        collections), applied in order; a source rejected by the engine
        fails its *batch* (recorded in that batch's
        :class:`BatchResult`) without poisoning the others — event
        validation happens before mutation, so a rejected source leaves
        the engine untouched.  Infrastructure failures (flush/commit
        errors) mark the manager broken and propagate.

        Returns one :class:`BatchResult` per batch.  The new epoch is
        visible to readers before this method returns.
        """
        with self._cond:
            if self._closed:
                raise ServeError("generation manager is closed")
            if self._broken is not None:
                raise ServeError(
                    "a previous commit failed; the server refuses writes"
                ) from self._broken
            self._writing = True
            while self._readers:
                self._cond.wait()
        try:
            with trace("serve.commit", batches=len(batches)):
                results = self._apply(batches)
        except BaseException as error:  # reprolint: disable=R007 - any escape (even KeyboardInterrupt) may leave a partial batch in the engine; poison the manager before propagating
            # recorded before the gate reopens, so no reader gets in
            # without seeing that the engine holds a failed batch
            self._broken = error
            raise
        finally:
            with self._cond:
                if self._broken is None:
                    self._epoch += 1
                self._writing = False
                self._cond.notify_all()
        self._epoch_gauge.set(float(self.epoch))
        return results

    def _apply(self, batches: Sequence[Sequence[Any]]) -> List[BatchResult]:
        engine = self._engine
        results: List[BatchResult] = []
        for batch in batches:
            result = BatchResult()
            for source in batch:
                try:
                    result.applied += engine.ingest(source)
                except ReproError as error:
                    # validation precedes mutation on the event paths, so
                    # a rejected source left the engine untouched
                    result.error = error
                    break
            results.append(result)
        engine.flush()
        engine.quiesce()
        return results

    # ------------------------------------------------------------------
    # shutdown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the engine; surface unapplied writes after a failure.

        The caller (the server's shutdown path) guarantees no reader or
        commit is in flight.  After a failed commit the engine is drained
        via :meth:`~repro.engine.JoinEstimationEngine.drain_pending`
        *before* closing, and the recovered rows and delete ids are
        raised in one :class:`~repro.errors.StrandedWritesError`.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
        # recover buffered writes before close() can discard them (or
        # raise from inside backend teardown)
        rows: List[Any] = []
        deletes: List[int] = []
        if self._broken is not None:
            drained = self._engine.drain_pending()
            rows, deletes = list(drained.rows), list(drained.deletes)
        teardown_error: Optional[Exception] = None
        try:
            self._engine.close()
        except StrandedWritesError as error:
            # close-path detection: a router noticed its own failed
            # commit; fold its recovered writes into ours
            rows.extend(error.pending_rows)
            deletes.extend(error.pending_deletes)
        except Exception as error:  # noqa: BLE001  # reprolint: disable=R007 - the recovered writes outrank a teardown error, which is chained onto them below
            if not (rows or deletes):
                raise
            teardown_error = error
        if rows or deletes:
            raise StrandedWritesError(
                f"serve shutdown recovered {len(rows)} unapplied row(s) and "
                f"{len(deletes)} unapplied delete(s) after a failed commit; "
                "re-route them to a fresh deployment",
                pending_rows=rows,
                pending_deletes=deletes,
            ) from teardown_error


__all__ = ["BatchResult", "Generation", "GenerationManager"]
