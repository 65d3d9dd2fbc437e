"""A sharded mutable LSH index: scale-out with a drop-in single-index surface.

:class:`ShardedMutableIndex` partitions the bucket-key space of one
mutable LSH table across ``S`` shards.  The facade owns the table and
the hash family; a shard holds only the ids and rows of the vectors
whose buckets it owns, served through the op table of
:class:`~repro.shard.ops.ShardWorker`.

The facade exposes the full single-index surface — ``insert`` /
``insert_many`` / ``delete``, observers, SampleH / SampleL, per-pair
cosine — with the *merge layer* built in:

* the facade keeps the *global* bucket layout in one id-only
  :class:`~repro.lsh.table.LSHTable` fed every insert and delete in
  arrival order — the table one unsharded index would have built, bucket,
  member and live-id order included, so SampleH and SampleL draws are
  **bit-identical for the same seed**.  It is the only record of
  bucket membership; a bucket never straddles shards, and a live bucket
  always sits on its key's pick, ``partitioner.shard_of(key)``;
* ``N_H`` is that table's count and ``N_L = C(n, 2) − N_H``
  (cross-shard pairs are all stratum L).  The per-shard sizes and
  ``N_H`` are facade counters, updated from the values every table
  insert and delete returns and moved by a rebalance;
* SampleH, SampleL's collision tests and the estimators' bucket sizes
  and repairs answer from that table, so this class and the
  process-backed :class:`~repro.cluster.ClusterCoordinator` share one
  code path that never asks a shard.  SampleH / SampleL themselves are
  the table's;
* every shard request — row writes (the rows to add and the ids to
  drop, one request per shard per batch) and gathers, snapshots,
  restores, invariant checks and rebalance moves — goes through one
  dispatch path, :meth:`ShardedMutableIndex._fan_out`, to endpoints that
  all expose ``send_request`` / ``recv_reply``: a
  :class:`~repro.shard.ops.ShardWorker` in process, a worker-process
  handle in the process shape.  A ``cosine_pairs`` call deduplicates the
  ids of both sides, maps them to shards through an id-indexed array,
  asks each owning shard once for its unique rows and lays them out in
  pair order with segment positions.  A failed mutating request marks
  the index broken on both shapes.

Consequently a :class:`~repro.streaming.estimator.StreamingEstimator`
constructed over the facade — which is what
:class:`~repro.shard.merge.ShardedStreamingEstimator` is — behaves
bit-identically to one constructed over an unsharded index fed the same
event sequence.  A snapshot (``SHARDED_STATE``, format 4) holds the
family, the ``(key, members)`` buckets, the id → shard assignments and
one row-store state per shard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from numbers import Integral
from typing import (
    Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union, cast,
)

import numpy as np
from scipy import sparse

from repro.errors import ClusterError, ValidationError
from repro.lsh.families import LSHFamily, SignRandomProjectionFamily
from repro.obs.metrics import Counter, Histogram, MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.lsh.signatures import key_signature_matrix, signature_bucket_key, signature_keys
from repro.lsh.table import LSHTable
from repro.rng import RandomState
from repro.shard.ops import ShardEndpoint, ShardWorker
from repro.shard.partition import KeyPartitioner
from repro.state import StateSpec
from repro.streaming.mutable_index import (
    bind_family,
    claim_vector_id,
    collect_estimator_states,
    restore_estimator_states,
)
from repro.streaming.rowstore import _MAX_ID, _MAX_POOL_NNZ, ROW_STORE_STATE
from repro.vectors.collection import VectorCollection, VectorInput, coerce_matrix, coerce_row
from repro.vectors.similarity import pairwise_cosine

#: ``(data, indices, indptr)`` of a stack of CSR rows
CSRParts = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: also the state of a :class:`~repro.cluster.ClusterCoordinator`.  Format 4:
#: the facade's family and ``(key, members)`` buckets, and one row-store
#: state per shard (format 3 also carried a partitioner and bucket owners;
#: format 2 shards were whole index states with their own tables; format 1
#: also embedded per-shard estimators)
SHARDED_STATE = StateSpec(
    "a sharded-index snapshot",
    {
        "dimension": Integral,
        "num_hashes": Integral,
        "num_shards": Integral,
        "family": SignRandomProjectionFamily,
        "next_id": Integral,
        "live_ids": (list, tuple),
        "shard_of": (list, tuple),
        "buckets": (list, tuple),
        "shards": (list, tuple),
        "estimators": (list, tuple),
    },
    format=4,
    kind="sharded",
    optional=("estimators",),
)

#: ops whose failure may leave a fan-out's other requests applied
_MUTATING_OPS = frozenset({"configure", "restore", "write"})

#: ``(shard_id, ids, rows, drop)``: one shard's ``write`` — add ``rows``
#: (``None`` when ``ids`` is empty) under ``ids``, remove the ``drop`` ids
ShardWrite = Tuple[int, np.ndarray, Optional[sparse.csr_matrix], np.ndarray]

_NO_IDS = np.zeros(0, dtype=np.int64)


@dataclass
class PreparedBatch:
    """A routed write batch: coerced rows, bucket keys, shard targets and
    the deletes that ride along.

    Each of ``deletes`` is ``(after, vector_id)``, in arrival order: the
    delete arrived after the batch's first ``after`` inserts.  It targets
    a vector live before the batch or one an earlier insert of the batch
    adds, at most once (the router checks each delete as it buffers it).
    """

    ids: np.ndarray
    csr: sparse.csr_matrix
    keys: List[bytes]
    shard_ids: np.ndarray
    deletes: List[Tuple[int, int]] = field(default_factory=list)

    def __len__(self) -> int:
        return int(self.ids.size)


class ShardedMutableIndex:
    """``S`` bucket-key-partitioned shards behind one mutable-index surface.

    Parameters
    ----------
    dimension, num_hashes, family, random_state:
        As in :class:`~repro.streaming.mutable_index.MutableLSHIndex`;
        the facade's hash family is drawn exactly as there, so an
        unsharded index with the same seed hashes (and therefore
        buckets) every vector identically.
    num_shards:
        ``S`` — number of shards; bucket keys are placed by a
        :class:`~repro.shard.partition.KeyPartitioner` over them.
    """

    #: why the index became unusable (set once, by :meth:`_mark_broken`)
    _broken: Optional[str] = None

    def __init__(
        self,
        dimension: int,
        *,
        num_shards: int = 4,
        num_hashes: int = 20,
        family: Union[str, LSHFamily] = "cosine",
        random_state: RandomState = None,
    ) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.num_hashes = int(num_hashes)
        self.partitioner = KeyPartitioner(num_shards)
        # identical family draw to an unsharded MutableLSHIndex
        self.family = bind_family(family, self.num_hashes, self.dimension, random_state)
        #: per-shard live-vector counts and ``N_H`` (the co-bucket pairs of
        #: the buckets each shard owns); written wherever the table is
        self._shard_sizes: List[int] = []
        self._shard_collision_pairs: List[int] = []
        self.shards: List[ShardEndpoint] = []
        self.add_shards(num_shards)
        #: id-indexed owning shard (-1 = not live); written on every write
        #: path (insert, delete, restore, rebalance), only read by queries
        self._shard_of_id = np.full(0, -1, dtype=np.int64)
        #: the global bucket layout and live ids: answers SampleH, SampleL
        #: and the estimators without asking any shard
        self._table = LSHTable(self.family)
        self._next_id = 0
        self._observers: List[object] = []

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry:
        """The registry this cluster records into (global unless injected).

        Lazy ``getattr`` because :class:`ClusterCoordinator` wires its
        plumbing *before* this ``__init__`` runs and ``from_state``
        builds instances via ``__new__``.
        """
        registry = getattr(self, "_metrics", None)
        return registry if registry is not None else get_global_registry()

    @metrics.setter
    def metrics(self, registry: Optional[MetricsRegistry]) -> None:
        self._metrics = registry

    def _commit_instruments(self) -> Tuple[Histogram, Counter]:
        cached = getattr(self, "_commit_metric_handles", None)
        if cached is None:
            cached = self._commit_metric_handles = (
                self.metrics.histogram("commit_batch_seconds"),
                self.metrics.counter("commit_rows_total"),
            )
        return cached

    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: VectorCollection,
        *,
        num_shards: int = 4,
        num_hashes: int = 20,
        family: Union[str, LSHFamily] = "cosine",
        random_state: RandomState = None,
        **kwargs: Any,
    ) -> "ShardedMutableIndex":
        """Bulk-load a collection (ids ``0 … n−1`` in row order)."""
        index = cls(
            collection.dimension,
            num_shards=num_shards,
            num_hashes=num_hashes,
            family=family,
            random_state=random_state,
            **kwargs,
        )
        index.insert_many(collection.matrix)
        return index

    # ------------------------------------------------------------------
    # shard management (construction + rebalance substrate)
    # ------------------------------------------------------------------
    def _connect(self, shard_id: int) -> ShardEndpoint:
        """The endpoint of a new shard, before its ``configure`` or ``restore``."""
        return ShardWorker(shard_id)

    def add_shards(self, new_total: int) -> None:
        """Grow the cluster to ``new_total`` (empty) shards.

        Existing shards and the partitioner are untouched — the caller,
        :func:`repro.shard.rebalance.rebalance_cluster`, migrates the
        keys whose pick changes and then adopts the new partitioner.
        """
        if new_total < len(self.shards):
            raise ValidationError(
                f"add_shards cannot shrink the cluster "
                f"({len(self.shards)} → {new_total}); use a rebalance"
            )
        while len(self.shards) < new_total:
            shard_id = len(self.shards)
            self.shards.append(self._connect(shard_id))
            self._shard_sizes.append(0)
            self._shard_collision_pairs.append(0)
            self._fan_out(
                "configure", [(shard_id, {"shard_id": shard_id, "dimension": self.dimension})]
            )

    def drop_trailing_shards(self, new_total: int) -> None:
        """Shrink the cluster to ``new_total`` shards; the rest must be empty."""
        if new_total < 1:
            raise ValidationError(f"a cluster needs >= 1 shard, got {new_total}")
        for shard_id in range(new_total, len(self.shards)):
            if self._shard_sizes[shard_id]:
                raise ValidationError(
                    f"shard {shard_id} still holds {self._shard_sizes[shard_id]} "
                    "vectors; rebalance them away before shrinking"
                )
        del self.shards[new_total:]
        del self._shard_sizes[new_total:]
        del self._shard_collision_pairs[new_total:]

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def size(self) -> int:
        """Number of live vectors ``n`` across all shards."""
        return self._table.num_vectors

    def __len__(self) -> int:
        return self.size

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._table

    @property
    def ids(self) -> np.ndarray:
        """Live vector ids (arbitrary but stable order, as unsharded)."""
        return self._table.ids

    @property
    def total_pairs(self) -> int:
        """``M = C(n, 2)`` over all live vectors, cross-shard included."""
        n = self.size
        return n * (n - 1) // 2

    @property
    def num_collision_pairs(self) -> int:
        """Global ``N_H`` (the sum of per-shard counts: buckets are disjoint)."""
        return self._table.num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        """Global ``N_L = M − N_H`` (includes every cross-shard pair)."""
        return self.total_pairs - self.num_collision_pairs

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Live vectors per shard (facade counters; no shard is asked)."""
        return tuple(self._shard_sizes)

    @property
    def shard_collision_pairs(self) -> Tuple[int, ...]:
        """Per-shard ``N_H``: the co-bucket pairs of the buckets each shard owns."""
        return tuple(self._shard_collision_pairs)

    @property
    def primary_table(self) -> LSHTable:
        """The global bucket table (ids only; the rows live on the shards)."""
        return self._table

    def _owners(self, ids: np.ndarray) -> np.ndarray:
        """The owning shard of every id; refuses the first one not live."""
        size = self._shard_of_id.size
        if ids.size == 0 or (ids.min() >= 0 and ids.max() < size):
            owners = self._shard_of_id[ids]
            if owners.size == 0 or owners.min() >= 0:
                return owners
        missing = next(int(i) for i in ids if not 0 <= i < size or self._shard_of_id[i] < 0)
        raise ValidationError(f"vector id {missing} is not in the index")

    def _place(self, ids: np.ndarray, shard_ids: Union[int, np.ndarray]) -> None:
        """Record the owning shard of ``ids`` in the id-indexed map."""
        if ids.size == 0:
            return
        needed = int(ids.max()) + 1
        if needed > self._shard_of_id.size:
            grown = np.full(max(needed, 2 * self._shard_of_id.size), -1, dtype=np.int64)
            grown[: self._shard_of_id.size] = self._shard_of_id
            self._shard_of_id = grown
        self._shard_of_id[ids] = shard_ids

    def shard_of(self, vector_id: int) -> ShardEndpoint:
        """The shard holding a live vector."""
        return self.shards[int(self._owners(np.asarray([vector_id], dtype=np.int64))[0])]

    def row(self, vector_id: int) -> sparse.csr_matrix:
        """The stored (raw) vector as a fresh 1×d CSR row."""
        return self._stack_raw(np.asarray([vector_id], dtype=np.int64))

    # ------------------------------------------------------------------
    # observers
    # ------------------------------------------------------------------
    def register_observer(self, observer: object) -> None:
        """Register ``on_insert`` / ``on_delete`` hooks (as unsharded)."""
        self._observers.append(observer)

    def unregister_observer(self, observer: object) -> None:
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # the one dispatch path to the shards
    # ------------------------------------------------------------------
    @property
    def broken(self) -> Optional[str]:
        """Why the index became unusable, or ``None`` while healthy."""
        return self._broken

    def _mark_broken(self, reason: str) -> None:
        if self._broken is None:
            self._broken = reason

    def _check_usable(self) -> None:
        if self._broken is not None:
            raise ClusterError(
                f"the cluster is broken ({self._broken}); its state may be "
                "partially applied — restore a snapshot onto a fresh cluster"
            )

    def _to_every_shard(self, payload: Any = None) -> List[Tuple[int, Any]]:
        return [(shard_id, payload) for shard_id in range(self.num_shards)]

    def _fan_out(self, op: str, requests: Sequence[Tuple[int, Any]]) -> List[Any]:
        """Send ``op`` with every ``(shard_id, payload)``, then await every reply.

        A reply error re-raises only once every reply sent has been read,
        so no connection is left holding a stale reply.  A failed mutating
        op marks the index broken: the fan-out's other requests (or the
        call) may have applied.
        """
        self._check_usable()
        endpoints = [self.shards[shard_id] for shard_id, _payload in requests]
        try:
            for endpoint, (_shard_id, payload) in zip(endpoints, requests):
                endpoint.send_request(op, payload)
            replies: List[Any] = []
            first_error: Optional[Exception] = None
            for endpoint in endpoints:
                try:
                    replies.append(endpoint.recv_reply(op))
                except Exception as error:  # reprolint: disable=R007 - read the rest, then re-raise
                    replies.append(None)
                    first_error = first_error or error
            if first_error is not None:
                raise first_error
        except Exception as error:  # reprolint: disable=R007 - mark broken and re-raise
            if op in _MUTATING_OPS:
                self._mark_broken(f"{op} failed: {error}")
            raise
        return replies

    def _write_rows(self, requests: Sequence[ShardWrite]) -> List[int]:
        """Send each :data:`ShardWrite` to its shard as one ``write`` request.

        Returns each shard's row count after its request, for
        :meth:`_check_sizes`.
        """
        payloads = []
        for shard_id, ids, rows, drop in requests:
            payload: Dict[str, Any] = {}
            if ids.size:
                payload.update(ids=ids, csr=rows)
            if drop.size:
                # a list pickles in a tenth of the time of a one-element array
                payload["drop"] = drop.tolist()
            payloads.append((shard_id, payload))
        replies = self._fan_out("write", payloads)
        return [int(reply["size"]) for reply in replies]

    def _check_sizes(self, shard_ids: Sequence[int], sizes: Sequence[int]) -> None:
        """Refuse a shard whose reported row count differs from the facade's."""
        for shard_id, size in zip(shard_ids, sizes):
            if int(size) != self._shard_sizes[shard_id]:
                raise ClusterError(
                    f"shard {shard_id} drifted: it holds {size} rows, the facade "
                    f"counts {self._shard_sizes[shard_id]}"
                )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def _claim_id(self, vector_id: Optional[int]) -> int:
        vector_id, self._next_id = claim_vector_id(
            vector_id, self._next_id, self._table
        )
        return vector_id

    @property
    def next_id(self) -> int:
        """The id the next insert without a caller-given id will claim."""
        return self._next_id

    def _track_insert(self, vector_id: int, key: bytes, shard_id: int) -> None:
        self._shard_collision_pairs[shard_id] += self._table.insert_key(vector_id, key)
        self._shard_sizes[shard_id] += 1

    def _apply_inserts(self, batch: PreparedBatch, start: int, stop: int) -> None:
        """Place and track the batch's inserts ``start … stop−1``, then notify."""
        self._place(batch.ids[start:stop], batch.shard_ids[start:stop])
        for position in range(start, stop):
            self._track_insert(
                int(batch.ids[position]), batch.keys[position], int(batch.shard_ids[position])
            )
        for vector_id in batch.ids[start:stop].tolist():
            for observer in self._observers:
                observer.on_insert(vector_id)

    def _apply_delete(self, vector_id: int) -> None:
        """Remove a live vector from the table and counters, then notify."""
        shard_id = int(self._shard_of_id[vector_id])
        self._shard_collision_pairs[shard_id] -= self._table.delete(vector_id)
        self._shard_sizes[shard_id] -= 1
        self._shard_of_id[vector_id] = -1
        for observer in self._observers:
            observer.on_delete(vector_id)

    def insert(self, vector: VectorInput, *, vector_id: Optional[int] = None) -> int:
        """Route one vector to its owning shard; returns the global id."""
        row = coerce_row(vector, self.dimension)
        signature = self.family.hash_matrix(row)[0]
        vector_id = self._claim_id(vector_id)
        key = signature_bucket_key(signature, self.num_hashes)
        shard_id = self.partitioner.shard_of(key)
        ids = np.asarray([vector_id], dtype=np.int64)
        sizes = self._write_rows([(shard_id, ids, row, _NO_IDS)])
        self._place(ids, shard_id)
        self._track_insert(vector_id, key, shard_id)
        self._check_sizes([shard_id], sizes)
        for observer in self._observers:
            observer.on_insert(vector_id)
        return vector_id

    def prepare_batch(
        self,
        matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection],
        *,
        vector_ids: Optional[Sequence[int]] = None,
        coerced: bool = False,
        deletes: Sequence[Tuple[int, int]] = (),
    ) -> PreparedBatch:
        """Coerce, hash (one batch product), and route a batch.

        Ids are claimed here; apply the batch with :meth:`commit_batch`.
        ``coerced=True`` skips re-canonicalisation for input that is
        canonical by construction (float64 CSR, sorted indices, no
        explicit zeros, finite) — the router's buffered rows already
        went through :func:`coerce_row` one by one.  ``deletes`` ride
        along (see :class:`PreparedBatch`).
        """
        csr = matrix if coerced else coerce_matrix(matrix, self.dimension)
        num_rows = csr.shape[0]
        signatures = np.ascontiguousarray(self.family.hash_matrix(csr))
        if vector_ids is None:
            ids = np.arange(self._next_id, self._next_id + num_rows, dtype=np.int64)
            self._next_id += num_rows
        else:
            ids = np.asarray(list(vector_ids), dtype=np.int64)
            if ids.size != num_rows:
                raise ValidationError(f"got {ids.size} vector ids for {num_rows} rows")
            if np.unique(ids).size != ids.size:
                raise ValidationError("vector ids must be unique within a batch")
            ids = np.array([self._claim_id(int(i)) for i in ids], dtype=np.int64)
        keys = signature_keys(signatures)
        shard_ids = self.partitioner.shard_of_signatures(signatures)
        return PreparedBatch(
            ids=ids, csr=csr, keys=keys, shard_ids=shard_ids, deletes=list(deletes)
        )

    def commit_batch(self, batch: PreparedBatch) -> np.ndarray:
        """Apply a prepared batch: one ``write`` per shard + merge bookkeeping.

        Each touched shard gets the rows it owns and the ids it drops in
        one :meth:`_write_rows` request; a row the batch inserts and
        deletes again reaches no shard.  The facade applies the batch in
        arrival order: each run of inserts is placed and tracked, then
        its observers are notified, and each delete updates the table
        and then notifies — so the merged SampleH layout and every
        observer see exactly the unbatched sequence of runs and deletes.
        """
        histogram, rows_total = self._commit_instruments()
        started = time.perf_counter()
        with trace("shard.commit_batch", rows=len(batch)):
            deleted = np.fromiter(
                (vector_id for _after, vector_id in batch.deletes), np.int64, len(batch.deletes)
            )
            sent = ~np.isin(batch.ids, deleted)
            dropped = deleted[~np.isin(deleted, batch.ids)]
            owners = self._owners(dropped)
            requests: List[ShardWrite] = []
            for shard_id in range(self.num_shards):
                rows = np.flatnonzero((batch.shard_ids == shard_id) & sent)
                drop = dropped[owners == shard_id]
                if rows.size or drop.size:
                    csr = batch.csr[rows] if rows.size else None
                    requests.append((shard_id, batch.ids[rows], csr, drop))
            sizes = self._write_rows(requests)
            start = 0
            for after, vector_id in batch.deletes:
                self._apply_inserts(batch, start, after)
                self._apply_delete(vector_id)
                start = after
            self._apply_inserts(batch, start, len(batch))
            self._check_sizes([request[0] for request in requests], sizes)
        histogram.observe(time.perf_counter() - started)
        rows_total.inc(len(batch))
        return batch.ids

    def insert_many(
        self,
        matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection],
        *,
        vector_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Batched ingestion: hash once, scatter rows to their shards."""
        return self.commit_batch(self.prepare_batch(matrix, vector_ids=vector_ids))

    def delete(self, vector_id: int) -> None:
        """Remove a live vector from its owning shard."""
        if vector_id not in self._table:
            raise ValidationError(f"vector id {vector_id} is not in the index")
        shard_id = int(self._shard_of_id[vector_id])
        drop = np.asarray([vector_id], dtype=np.int64)
        sizes = self._write_rows([(shard_id, _NO_IDS, None, drop)])
        self._apply_delete(vector_id)
        self._check_sizes([shard_id], sizes)

    # ------------------------------------------------------------------
    # merged sampling + similarity (the query-side merge layer)
    # ------------------------------------------------------------------
    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from the global stratum H (SampleH)."""
        return self._table.sample_collision_pairs(sample_size, random_state=random_state)

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from the global stratum L via rejection (SampleL)."""
        return self._table.sample_non_collision_pairs(
            sample_size, random_state=random_state, max_attempts=max_attempts
        )

    def _gather(
        self, ids: np.ndarray, *, normalized: bool
    ) -> Tuple[sparse.csr_matrix, np.ndarray]:
        """The fetched rows of ``ids`` as one CSR matrix, and each id's row in it.

        Each owning shard is asked once, for its unique ids; indexing the
        matrix with the returned rows lays them out in ``ids`` order
        (repeats allowed).  A broken index refuses before it checks the
        ids: a failed commit may have left the facade without its batch.
        """
        self._check_usable()
        # one sort groups the unique ids by owning shard, ascending within each
        keys = self._owners(ids) * _MAX_ID + ids
        unique_keys, rows = np.unique(keys, return_inverse=True)
        bounds = np.searchsorted(unique_keys, np.arange(self.num_shards + 1) * _MAX_ID)
        unique = unique_keys % _MAX_ID
        replies = self._fan_out("gather_rows", [
            (shard_id, {"ids": unique[start:stop], "normalized": normalized})
            for shard_id, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:]))
            if stop > start
        ])
        parts: List[CSRParts] = [reply["parts"] for reply in replies]
        # int32 offsets where they fit, as a shard's pool has them: scipy then
        # takes them as they are
        nnz = sum(part[0].size for part in parts)
        indptr = np.zeros(unique.size + 1, dtype=np.int32 if nnz <= _MAX_POOL_NNZ else np.int64)
        np.cumsum(np.concatenate([np.diff(part[2]) for part in parts]), out=indptr[1:])
        fetched = sparse.csr_matrix(
            (np.concatenate([part[0] for part in parts]),
             np.concatenate([part[1] for part in parts]), indptr),
            shape=(unique.size, self.dimension),
        )
        return fetched, rows.ravel()

    def cosine_pairs(self, left_ids: Sequence[int], right_ids: Sequence[int]) -> np.ndarray:
        """Cosine similarities for live ``(left, right)`` id pairs across shards.

        Both sides share one gather, so every shard is asked once per call;
        each side is then one row index of the fetched rows.
        """
        left = np.asarray(left_ids, dtype=np.int64)
        right = np.asarray(right_ids, dtype=np.int64)
        if left.shape != right.shape:
            raise ValidationError("left and right id arrays must have the same length")
        if left.size == 0:
            return np.zeros(0, dtype=np.float64)
        fetched, rows = self._gather(np.concatenate([left.ravel(), right.ravel()]), normalized=True)
        return pairwise_cosine(fetched[rows[: left.size]], fetched[rows[left.size :]])

    # ------------------------------------------------------------------
    # export / verification
    # ------------------------------------------------------------------
    def to_collection(self) -> Tuple[VectorCollection, np.ndarray]:
        """Materialise all live vectors as one collection (facade id order)."""
        if not self.size:
            raise ValidationError("cannot materialise an empty index as a collection")
        ids = self.ids
        return VectorCollection(self._stack_raw(ids), copy=False), ids

    def _stack_raw(self, ids: np.ndarray) -> sparse.csr_matrix:
        fetched, rows = self._gather(ids, normalized=False)
        return fetched[rows]

    def _recount_shards(self) -> Tuple[List[int], List[int]]:
        """Per-shard sizes and ``N_H`` recounted from the table in one
        vectorised pass; refuses a bucket whose members are not all
        assigned to its key's pick."""
        buckets = self._table.bucket_state()
        keys = [key for key, _members in buckets]
        counts = np.fromiter((len(members) for _key, members in buckets), np.int64, len(buckets))
        members = np.fromiter(
            (member for _key, bucket in buckets for member in bucket), np.int64, int(counts.sum())
        )
        picks = self.partitioner.shard_of_signatures(key_signature_matrix(keys, self.num_hashes))
        if np.any(self._shard_of_id[members] != np.repeat(picks, counts)):
            raise ValidationError("a bucket has members assigned off its key's shard")
        sizes = np.zeros(self.partitioner.num_shards, dtype=np.int64)
        pairs = np.zeros(self.partitioner.num_shards, dtype=np.int64)
        np.add.at(sizes, picks, counts)
        np.add.at(pairs, picks, counts * (counts - 1) // 2)
        return sizes.tolist(), pairs.tolist()

    def check_invariants(self) -> None:
        """Verify the merge bookkeeping and every shard's rows (tests aid)."""
        if self.partitioner.num_shards != len(self.shards):
            raise AssertionError(
                f"partitioner covers {self.partitioner.num_shards} shards, "
                f"cluster has {len(self.shards)}"
            )
        self._table.check_invariants()
        if np.count_nonzero(self._shard_of_id >= 0) != self.size:
            raise AssertionError("id → shard map drifted from the live set")
        counters = (self._shard_sizes, self._shard_collision_pairs)
        if self._recount_shards() != counters:
            raise AssertionError("per-shard size / N_H counters drifted")
        self._fan_out("check", self._to_every_shard())
        for shard_id, reply in enumerate(self._fan_out("ids", self._to_every_shard())):
            if not np.array_equal(reply["ids"], np.flatnonzero(self._shard_of_id == shard_id)):
                raise AssertionError(f"shard {shard_id} holds other rows than its ids")

    # ------------------------------------------------------------------
    # snapshot / restore (checkpointing substrate)
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """A picklable checkpoint of the facade and every shard's rows.

        Estimators observing the facade are captured under
        ``"estimators"`` with their reservoirs and generator positions,
        so restores replay estimates bit-identically instead of
        redrawing sampled state.
        """
        return SHARDED_STATE.dump(
            dimension=self.dimension,
            num_hashes=self.num_hashes,
            num_shards=self.num_shards,
            family=self.family,
            next_id=self._next_id,
            live_ids=self._table.ids.tolist(),
            shard_of=self._shard_of_id[self.ids].tolist(),
            buckets=self._table.bucket_state(),
            shards=[reply["state"] for reply in self._fan_out("snapshot", self._to_every_shard())],
            estimators=collect_estimator_states(self._observers),
        )

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "ShardedMutableIndex":
        """Rebuild a sharded index from :meth:`to_state` output.

        Facade estimators come back with their reservoirs, staleness
        counters and generator positions intact (see :meth:`to_state`).
        """
        sharded = cls.__new__(cls)
        sharded._restore_facade(state)
        sharded._restore_shards(state)
        return sharded

    def _restore_facade(self, state: Mapping[str, object]) -> None:
        """Check a snapshot whole and restore everything but the shards.

        The cluster restore runs it before any worker is spawned: a
        snapshot whose shard assignments, shard rows or bucket placement
        disagree is refused here, not half-adopted.
        """
        SHARDED_STATE.check(state)
        num_shards = int(cast(int, state["num_shards"]))
        shards, shard_of, buckets = (
            cast(Sequence[Any], state[name]) for name in ("shards", "shard_of", "buckets")
        )
        if len(shards) != num_shards:
            SHARDED_STATE.refuse(f"{len(shards)} shard states for num_shards={num_shards}")
        self.dimension = int(cast(int, state["dimension"]))
        self.num_hashes = int(cast(int, state["num_hashes"]))
        self.partitioner = KeyPartitioner(num_shards)
        self.family = bind_family(
            cast(LSHFamily, state["family"]), self.num_hashes, self.dimension, None
        )
        live_ids = np.asarray(cast(Sequence[int], state["live_ids"]), dtype=np.int64)
        if len(shard_of) != live_ids.size:
            SHARDED_STATE.refuse(f"{len(shard_of)} shard assignments for {live_ids.size} live ids")
        if live_ids.size and not 0 <= int(live_ids.min()) <= int(live_ids.max()) < _MAX_ID:
            SHARDED_STATE.refuse(f"its live ids leave [0, {_MAX_ID})")
        assigned = np.asarray(shard_of, dtype=np.int64)
        if assigned.size and not 0 <= int(assigned.min()) <= int(assigned.max()) < num_shards:
            SHARDED_STATE.refuse(f"its shard assignments leave [0, {num_shards})")
        for shard_id, shard_state in enumerate(shards):
            ROW_STORE_STATE.check(shard_state)
            if shard_state["dimension"] != self.dimension:
                SHARDED_STATE.refuse(f"shard {shard_id} has dimension {shard_state['dimension']}")
            if sorted(shard_state["ids"]) != sorted(live_ids[assigned == shard_id].tolist()):
                SHARDED_STATE.refuse(f"shard {shard_id} holds other rows than its assigned ids")
        self._shard_of_id = np.full(0, -1, dtype=np.int64)
        self._place(live_ids, assigned)
        self._table = LSHTable(self.family)
        try:
            self._table.load_bucket_state(list(buckets), live_ids.tolist())
        except ValidationError as error:
            SHARDED_STATE.refuse(str(error))
        # refuses a bucket whose members are assigned off its key's pick
        self._shard_sizes, self._shard_collision_pairs = self._recount_shards()
        self._next_id = int(cast(int, state["next_id"]))
        self._observers = []

    def _restore_shards(self, state: Mapping[str, object]) -> None:
        """Connect one endpoint per shard, restore all their rows in one
        fan-out, then the facade estimators (after :meth:`_restore_facade`)."""
        shard_states = cast(Sequence[Any], state["shards"])
        self.shards = []
        for shard_id in range(len(shard_states)):
            self.shards.append(self._connect(shard_id))
        replies = self._fan_out("restore", [
            (shard_id, {"state": shard_state, "shard_id": shard_id})
            for shard_id, shard_state in enumerate(shard_states)
        ])
        self._check_sizes(range(len(shard_states)), [reply["size"] for reply in replies])
        restore_estimator_states(self, state.get("estimators", ()))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardedMutableIndex(n={self.size}, shards={self.num_shards}, "
            f"d={self.dimension}, k={self.num_hashes})"
        )


__all__ = ["PreparedBatch", "ShardedMutableIndex"]
