"""The shard op table: the one interface between the facade and its shards.

A shard holds one :class:`~repro.streaming.rowstore.RowStore` — the ids
and rows of the vectors whose buckets it owns — and serves it through
the ``op_*`` methods of :class:`ShardWorker`.  Every op's payload and
reply are the library's existing serialisations:

=====================  ====================================================
``configure``          build an empty row store of the given dimension
``restore``            revive the row store from a row-store state
``snapshot``           return the row-store state
``write``              one shard's slice of a write batch: remove the
                       ``drop`` ids, then add the CSR rows ``csr`` under
                       ``ids`` (either part may be absent)
``gather_rows``        CSR parts (``data, indices, indptr``) of the rows of
                       the shard's unique ids, optionally normalised
``ids``                the stored ids, ascending (invariant checks)
``check`` / ``stats``  invariants / row count
``ping``               liveness
=====================  ====================================================

Mutating ops reply with the post-op row count, which the facade checks
against its own count for the shard.  No op draws samples: the facade
samples from its own global bucket table.

:class:`~repro.shard.sharded_index.ShardedMutableIndex` reaches every
shard as a :class:`ShardEndpoint` — ``send_request(op, payload)`` then
``recv_reply(op)``.  In process the endpoint is the :class:`ShardWorker`
itself; in the process shape it is a
:class:`~repro.cluster.coordinator.WorkerHandle` whose worker process
serves a :class:`ShardWorker` over the wire (:mod:`repro.cluster.worker`).
"""

from __future__ import annotations

import os
import threading
from typing import Any, Dict, Optional, Protocol

from repro.errors import ClusterError
from repro.obs.metrics import get_global_registry
from repro.streaming.rowstore import RowStore


class ShardEndpoint(Protocol):
    """One shard as the facade sees it: a request, then its reply."""

    def send_request(self, op: str, payload: Any = None) -> None: ...

    def recv_reply(self, op: str) -> Any: ...


class ShardWorker:
    """The op table and row store of one shard; in process, its endpoint.

    :meth:`send_request` runs the op at once, so an op error raises there,
    before the caller's fan-out goes on.  The reply waits for
    :meth:`recv_reply` in a per-thread slot: the sharded backend serves
    concurrent readers, and each reads its own reply.
    """

    def __init__(self, shard_id: Optional[int] = None) -> None:
        self.shard_id = shard_id
        self.store: Optional[RowStore] = None
        self._replies = threading.local()

    # ------------------------------------------------------------------
    # the endpoint
    # ------------------------------------------------------------------
    def send_request(self, op: str, payload: Any = None) -> None:
        self._replies.reply = self.handle(op, payload)

    def recv_reply(self, op: str) -> Any:
        reply = self._replies.reply
        del self._replies.reply
        return reply

    def handle(self, op: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        handler = getattr(self, f"op_{op}", None)
        if handler is None:
            raise ClusterError(f"unknown worker op {op!r}")
        return handler(payload or {})

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

    def op_write(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        store = self._require_store()
        if "drop" in payload:
            store.remove_many(payload["drop"])
        if "ids" in payload:
            store.add_many(payload["ids"], payload["csr"])
        return self._stats()

    def op_gather_rows(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        parts = self._require_store().csr_parts(
            payload["ids"], normalized=bool(payload.get("normalized"))
        )
        return {"parts": parts}

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


__all__ = ["ShardEndpoint", "ShardWorker"]
