"""Streaming estimation subsystem: mutable LSH index + incremental estimates.

The paper builds its estimators once over a static collection; this
subpackage keeps them serveable while the collection grows and shrinks:

* :mod:`~repro.streaming.mutable_index` — :class:`MutableLSHIndex`, the
  paper's bucket-count-extended index (one
  :class:`~repro.lsh.table.LSHTable`) under O(1)-amortised ``insert`` /
  ``delete`` with exact ``N_H`` / ``N_L`` bookkeeping, plus row storage.
* :mod:`~repro.streaming.estimator` — :class:`StreamingEstimator`,
  LSH-SS whose per-stratum sample reservoirs are repaired on mutation
  and partially resampled under a configurable staleness budget.
* :mod:`~repro.streaming.events` — :class:`ChangeLog` with
  :class:`Insert` / :class:`Delete` / :class:`Checkpoint` events, JSONL
  round-trip, and replay (the substrate of the ``repro stream`` CLI).

Replaying any event sequence yields exactly the strata sizes a fresh
batch build over the final collection would produce, because per-vector
signatures go through the same
:meth:`~repro.lsh.families.LSHFamily.hash_matrix` path as the batch
build.
"""

from repro.streaming.events import ChangeLog, Checkpoint, Delete, Event, Insert
from repro.streaming.estimator import StreamingEstimator
from repro.streaming.mutable_index import MutableLSHIndex

__all__ = [
    "MutableLSHIndex",
    "StreamingEstimator",
    "ChangeLog",
    "Insert",
    "Delete",
    "Checkpoint",
    "Event",
]
