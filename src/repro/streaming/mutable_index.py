"""A mutable LSH index: the paper's extended index under insert/delete.

The static :class:`~repro.lsh.table.LSHTable` /
:class:`~repro.lsh.index.LSHIndex` pair hashes a whole collection once
and freezes the bucket layout; any change to the collection costs a full
``O(n·k)`` rebuild.  This module provides the mutable counterpart used by
the streaming estimators:

* :class:`MutableLSHTable` — one hash table whose buckets support O(1)
  amortised ``insert`` / ``delete`` while keeping the paper's bucket-count
  bookkeeping (``N_H = Σ_j C(b_j, 2)``) *exact* at every step.  A vector's
  signature — computed through the same
  :meth:`~repro.lsh.families.LSHFamily.hash_matrix` code path as the
  batch build — never changes, so a surviving pair never migrates between
  stratum H and stratum L; mutations only add or remove pairs.
* :class:`MutableLSHIndex` — one mutable table (multi-table LSH-SS is
  static-only) over one growing / shrinking set of vectors, with stable
  sequential ids (or caller-assigned ids), pooled row storage
  (:class:`~repro.streaming.rowstore.RowStore`) for fast per-pair cosine
  evaluation, and SampleH / SampleL through the shared primitives of
  :mod:`repro.lsh.table` — it supplies its bucket layout, its
  :class:`LiveIds` population and its collision test
  (:class:`repro.streaming.estimator.StreamingEstimator` builds on these).

Because signatures are deterministic given the family seed, replaying a
:class:`~repro.streaming.events.ChangeLog` through a mutable index yields
exactly the strata sizes (``N_H`` / ``N_L``) a fresh batch build over the
final collection would produce.

Indexes are checkpointed with :meth:`MutableLSHIndex.to_state` and
revived with :meth:`MutableLSHIndex.from_state`: the state holds the
rows, the bucket layout (including dict iteration order, so sampling
draws replay identically), and the hash family itself, under one-element
``tables`` / ``families`` lists (``num_tables: 1``; more is refused).  The
one snapshot *file* format is the engine bundle
(:meth:`repro.engine.JoinEstimationEngine.snapshot`).
"""

from __future__ import annotations

from numbers import Integral
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Type, Union,
)

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.lsh.families import LSHFamily
from repro.lsh.index import resolve_family
from repro.lsh.table import sample_rejected_pairs, sample_weighted_bucket_pairs, uniform_pairs_of
from repro.rng import RandomState, ensure_rng, spawn
from repro.state import StateSpec
from repro.streaming.rowstore import _MAX_ID, RowStore
from repro.vectors.collection import VectorCollection
from repro.vectors.similarity import pairwise_cosine

VectorInput = Union[Mapping[int, float], Sequence[float], np.ndarray, sparse.spmatrix]

#: Per-table bucket layout in dict iteration order: ``[(key, [member, …]), …]``.
BucketState = List[Tuple[bytes, List[int]]]

#: index states carry no kind tag; engine bundles and cluster states do
INDEX_STATE = StateSpec(
    "a streaming-index snapshot",
    {
        "dimension": Integral,
        "num_hashes": Integral,
        "num_tables": Integral,
        "next_id": Integral,
        "live_ids": (list, tuple),
        "rows": Mapping,
        "families": (list, tuple),
        "tables": (list, tuple),
        "estimators": (list, tuple),
    },
    optional=("estimators",),
)


def check_index_state(state: Mapping[str, Any]) -> None:
    """Refuse a malformed index state, or one that is not exactly one table."""
    INDEX_STATE.check(state)
    tables, families = state["tables"], state["families"]
    if state["num_tables"] != 1 or len(tables) != 1 or len(families) != 1:
        INDEX_STATE.refuse(
            f"{len(tables)} table layouts and {len(families)} families for "
            f"num_tables={state['num_tables']}; a mutable index holds exactly one table"
        )
    if not isinstance(families[0], LSHFamily):
        INDEX_STATE.refuse(f"its family is a {type(families[0]).__name__}, not an LSHFamily")


def bind_family(
    family: Union[str, Type[LSHFamily], LSHFamily], num_hashes: int, dimension: int,
    random_state: RandomState,
) -> LSHFamily:
    """A mutable index's hash family, bound to ``dimension``: an instance is
    checked against ``k``, a name or class is drawn from ``spawn(rng, 1)``
    exactly as the static :class:`~repro.lsh.index.LSHIndex` draws its
    first table's, so the same seed hashes identically."""
    if isinstance(family, LSHFamily):
        if family.num_hashes != num_hashes:
            raise ValidationError(f"family has k={family.num_hashes}, index expects k={num_hashes}")
    else:
        (child,) = spawn(ensure_rng(random_state), 1)
        family = resolve_family(family)(num_hashes, random_state=child)
    family.ensure_initialised(dimension)
    return family


def coerce_row(vector: VectorInput, dimension: int) -> sparse.csr_matrix:
    """Canonicalise one input vector into a fresh 1×``dimension`` CSR row.

    Shared by :meth:`MutableLSHIndex.insert` and the shard router, so a
    vector routed through a :class:`repro.shard.ShardedMutableIndex` is
    stored bit-for-bit as a direct insert would store it.
    """
    if isinstance(vector, Mapping):
        indices = np.asarray([int(i) for i in vector.keys()], dtype=np.int64)
        values = np.asarray([float(v) for v in vector.values()], dtype=np.float64)
        if indices.size and (indices.min() < 0 or indices.max() >= dimension):
            raise ValidationError(
                f"vector indices must lie in [0, {dimension}), got "
                f"[{indices.min()}, {indices.max()}]"
            )
        row = sparse.csr_matrix(
            (values, (np.zeros(indices.size, dtype=np.int64), indices)),
            shape=(1, dimension),
            dtype=np.float64,
        )
    elif sparse.issparse(vector):
        # always copy: the row is canonicalised in place and stored, and
        # must never alias (or mutate) the caller's matrix
        row = vector.tocsr().astype(np.float64, copy=True)
    else:
        dense = np.asarray(vector, dtype=np.float64)
        if dense.ndim == 1:
            dense = dense[None, :]
        row = sparse.csr_matrix(dense)
    if row.shape[0] != 1 or row.shape[1] != dimension:
        raise ValidationError(
            f"expected one vector of dimension {dimension}, got shape {row.shape}"
        )
    if not np.all(np.isfinite(row.data)):
        raise ValidationError("vector values must be finite (no NaN / inf)")
    row.eliminate_zeros()
    row.sort_indices()
    return row


def coerce_matrix(
    matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection], dimension: int
) -> sparse.csr_matrix:
    """Canonicalise a whole input matrix the way :func:`coerce_row` does rows.

    Canonicalisation happens BEFORE hashing: families that hash the
    support (e.g. MinHash) must see the same rows ``insert`` / a fresh
    batch build would, or explicit stored zeros would change signatures.
    """
    if isinstance(matrix, VectorCollection):
        matrix = matrix.matrix
    if not sparse.issparse(matrix):
        matrix = sparse.csr_matrix(np.atleast_2d(np.asarray(matrix, dtype=np.float64)))
    csr = matrix.tocsr().astype(np.float64)
    if csr.shape[1] != dimension:
        raise ValidationError(
            f"matrix dimension {csr.shape[1]} does not match index dimension {dimension}"
        )
    if not np.all(np.isfinite(csr.data)):
        raise ValidationError("vector values must be finite (no NaN / inf)")
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


class LiveIds:
    """The live vector ids in swap-pop order: the population SampleL draws from.

    Holders fed the same inserts (appends) and deletes (the last id moves
    into the freed slot) in the same order hold the same sequence, element
    for element — an unsharded index and the sharded facade fed the same
    events, so their SampleL draws agree.
    """

    def __init__(self, ids: Iterable[int] = ()) -> None:
        self._live_ids: List[int] = [int(i) for i in ids]
        self._live_position: Dict[int, int] = {
            vector_id: position for position, vector_id in enumerate(self._live_ids)
        }

    def add(self, vector_id: int) -> None:
        self._live_position[vector_id] = len(self._live_ids)
        self._live_ids.append(vector_id)

    def add_many(self, ids: Iterable[int]) -> None:
        for vector_id in ids:
            self.add(int(vector_id))

    def remove(self, vector_id: int) -> None:
        """Swap-pop ``vector_id`` out (``KeyError`` if it is not live)."""
        position = self._live_position.pop(vector_id)
        last = self._live_ids.pop()
        if last != vector_id:
            self._live_ids[position] = last
            self._live_position[last] = position

    def __contains__(self, vector_id: object) -> bool:
        return vector_id in self._live_position

    def __len__(self) -> int:
        return len(self._live_ids)

    def __iter__(self) -> Iterator[int]:
        return iter(self._live_ids)

    def array(self) -> np.ndarray:
        """The ids in order as an int64 array."""
        return np.asarray(self._live_ids, dtype=np.int64)


def claim_vector_id(
    vector_id: Optional[int], next_id: int, live: LiveIds
) -> Tuple[int, int]:
    """Validate / assign one vector id; returns ``(vector_id, new_next_id)``.

    Shared by :class:`MutableLSHIndex` and the sharded facade so both
    enforce the same id policy: non-negative, below the row store's id
    space, and never currently live.
    """
    if vector_id is None:
        vector_id = next_id
    else:
        vector_id = int(vector_id)
        if not 0 <= vector_id < _MAX_ID:
            raise ValidationError(
                f"vector ids must lie in [0, {_MAX_ID}), got {vector_id}"
            )
        if vector_id in live:
            raise ValidationError(f"vector id {vector_id} is already in the index")
    return vector_id, max(next_id, vector_id + 1)


def signature_bucket_key(signature: np.ndarray, num_hashes: int) -> bytes:
    """Serialise a ``(k,)`` signature into the bucket key used by the tables."""
    row = np.ascontiguousarray(np.asarray(signature, dtype=np.int64).ravel())
    if row.size != num_hashes:
        raise ValidationError(
            f"signature has {row.size} values, expected k={num_hashes}"
        )
    return row.tobytes()


class MutableLSHTable:
    """One mutable LSH hash table with exact ``N_H`` bookkeeping.

    Buckets are keyed by the serialised signature; members are kept in
    swap-pop lists with a position map so ``insert`` and ``delete`` are
    O(1) dictionary operations.  ``num_collision_pairs`` is maintained
    incrementally: inserting into a bucket of size ``b`` adds ``b`` new
    co-bucket pairs, deleting from a bucket of size ``b`` removes
    ``b − 1``.

    The weighted bucket-pair sampler (SampleH) uses a lazily rebuilt flat
    CSR-style view of the buckets; the view is invalidated by any
    mutation and rebuilt in ``O(n)`` on the next sampling call, so bursts
    of updates between queries pay for one rebuild only.
    """

    def __init__(self, family: LSHFamily) -> None:
        self.family = family
        self._key_of: Dict[int, bytes] = {}
        self._members: Dict[bytes, List[int]] = {}
        self._position: Dict[int, int] = {}
        self._num_collision_pairs = 0
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vectors(self) -> int:
        """Number of live vectors in the table."""
        return len(self._key_of)

    @property
    def num_hashes(self) -> int:
        """Number of hash functions ``k`` in ``g``."""
        return self.family.num_hashes

    @property
    def num_buckets(self) -> int:
        """Number of non-empty buckets."""
        return len(self._members)

    @property
    def num_collision_pairs(self) -> int:
        """``N_H = Σ_j C(b_j, 2)``, maintained exactly under mutation."""
        return self._num_collision_pairs

    @property
    def bucket_sizes(self) -> np.ndarray:
        """Sizes of all non-empty buckets (arbitrary but stable order)."""
        return np.asarray([len(m) for m in self._members.values()], dtype=np.int64)

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._key_of

    def signature_key(self, vector_id: int) -> bytes:
        """The serialised signature (bucket key) of a live vector."""
        try:
            return self._key_of[vector_id]
        except KeyError:
            raise ValidationError(f"vector id {vector_id} is not in the table") from None

    def bucket_size_of(self, vector_id: int) -> int:
        """Size of the bucket containing ``vector_id``."""
        return len(self._members[self.signature_key(vector_id)])

    def bucket_members_of(self, vector_id: int) -> np.ndarray:
        """Ids sharing a bucket with ``vector_id`` (including itself)."""
        return np.asarray(self._members[self.signature_key(vector_id)], dtype=np.int64)

    def same_bucket(self, u: int, v: int) -> bool:
        """``True`` iff live vectors ``u`` and ``v`` share a bucket."""
        return self.signature_key(u) == self.signature_key(v)

    def same_bucket_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`same_bucket` over arrays of live vector ids."""
        key_of = self._key_of
        return np.fromiter(
            (key_of[int(u)] == key_of[int(v)] for u, v in zip(left, right)),
            dtype=bool,
            count=len(left),
        )

    def bucket_keys(self) -> List[bytes]:
        """The live bucket keys, in bucket order."""
        return list(self._members)

    def bucket_members_by_key(self, key: bytes) -> List[int]:
        """The member list of the bucket keyed by ``key`` (do not mutate).

        Used by the sharded facade to find the members of a bucket it
        migrates to another shard.
        """
        try:
            return self._members[key]
        except KeyError:
            raise ValidationError("no bucket with the given signature key") from None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, vector_id: int, signature: np.ndarray) -> int:
        """Insert a vector with a precomputed ``(k,)`` signature row.

        Returns the number of co-bucket pairs the insertion created (the
        size of the target bucket before insertion).
        """
        return self.insert_key(vector_id, signature_bucket_key(signature, self.num_hashes))

    def insert_key(self, vector_id: int, key: bytes) -> int:
        """:meth:`insert` for a vector whose bucket key is already known."""
        if vector_id in self._key_of:
            raise ValidationError(f"vector id {vector_id} is already in the table")
        bucket = self._members.setdefault(key, [])
        new_pairs = len(bucket)
        self._position[vector_id] = len(bucket)
        bucket.append(vector_id)
        self._key_of[vector_id] = key
        self._num_collision_pairs += new_pairs
        self._frozen = None
        return new_pairs

    def delete(self, vector_id: int) -> int:
        """Remove a live vector; returns the number of co-bucket pairs removed."""
        key = self.signature_key(vector_id)
        bucket = self._members[key]
        position = self._position.pop(vector_id)
        last = bucket.pop()
        if last != vector_id:
            bucket[position] = last
            self._position[last] = position
        del self._key_of[vector_id]
        removed_pairs = len(bucket)
        self._num_collision_pairs -= removed_pairs
        if not bucket:
            del self._members[key]
        self._frozen = None
        return removed_pairs

    # ------------------------------------------------------------------
    # sampling (SampleH primitive)
    # ------------------------------------------------------------------
    def _frozen_layout(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """CSR-style (counts, offsets, members_flat, pair_counts) over buckets with ≥ 2 members."""
        if self._frozen is None:
            self._frozen = freeze_bucket_layout(
                members
                for members in self._members.values()
                if len(members) >= 2
            )
        return self._frozen

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample uniform pairs from stratum H (same scheme as the static table)."""
        return sample_weighted_bucket_pairs(*self._frozen_layout(), sample_size, random_state)

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def bucket_state(self) -> BucketState:
        """The bucket layout in dict iteration order (snapshot substrate).

        Preserving the iteration order matters: the SampleH layout is
        derived from it, so a restored table replays the same draws the
        original would for the same generator state.
        """
        return [(key, list(members)) for key, members in self._members.items()]

    def load_bucket_state(self, buckets: BucketState) -> None:
        """Replace the bucket layout with a previously captured state."""
        self._key_of = {}
        self._members = {}
        self._position = {}
        self._num_collision_pairs = 0
        self._frozen = None
        for key, members in buckets:
            bucket = list(int(member) for member in members)
            self._members[bytes(key)] = bucket
            for position, vector_id in enumerate(bucket):
                if vector_id in self._key_of:
                    raise ValidationError(
                        f"bucket state repeats vector id {vector_id}"
                    )
                self._key_of[vector_id] = bytes(key)
                self._position[vector_id] = position
            size = len(bucket)
            self._num_collision_pairs += size * (size - 1) // 2

    def check_invariants(self) -> None:
        """Verify the incremental bookkeeping against a from-scratch recount."""
        sizes = self.bucket_sizes
        recomputed = int(np.sum(sizes * (sizes - 1) // 2)) if sizes.size else 0
        if recomputed != self._num_collision_pairs:
            raise AssertionError(
                f"N_H bookkeeping drifted: incremental={self._num_collision_pairs}, "
                f"recount={recomputed}"
            )
        if int(sizes.sum()) != len(self._key_of) or len(self._position) != len(self._key_of):
            raise AssertionError("member bookkeeping drifted")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableLSHTable(n={self.num_vectors}, k={self.num_hashes}, "
            f"buckets={self.num_buckets}, NH={self.num_collision_pairs})"
        )


def freeze_bucket_layout(
    buckets: Iterable[Union[Sequence[int], np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten an iterable of member lists into the SampleH CSR layout.

    Shared by :class:`MutableLSHTable` and the sharded merge layer
    (:mod:`repro.shard`), which feeds buckets gathered from many shards —
    identical inputs produce identical layouts, hence identical draws.
    """
    arrays = [np.asarray(members, dtype=np.int64) for members in buckets]
    if arrays:
        counts = np.asarray([a.size for a in arrays], dtype=np.int64)
        members_flat = np.concatenate(arrays)
    else:
        counts = np.zeros(0, dtype=np.int64)
        members_flat = np.zeros(0, dtype=np.int64)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    pair_counts = counts * (counts - 1) // 2
    return counts, offsets, members_flat, pair_counts


def collect_estimator_states(observers: Sequence[object]) -> List[Dict[str, object]]:
    """Serialisable states of the estimator observers among ``observers``.

    Duck-typed (``to_state`` + the ``"streaming-estimator"`` kind tag)
    so this module never imports :mod:`repro.streaming.estimator`, which
    imports it back.
    """
    states = []
    for observer in observers:
        to_state = getattr(observer, "to_state", None)
        if not callable(to_state):
            continue
        state = to_state()
        if isinstance(state, dict) and state.get("kind") == "streaming-estimator":
            states.append(state)
    return states


def restore_estimator_states(
    index: "MutableLSHIndex", states: Sequence[Mapping[str, object]]
) -> List[object]:
    """Reattach checkpointed estimators to a restored index (in order)."""
    from repro.streaming.estimator import StreamingEstimator

    return [StreamingEstimator.from_state(index, state) for state in states]


class MutableLSHIndex:
    """One mutable LSH table over a growing / shrinking vector set.

    Parameters
    ----------
    dimension:
        Dimensionality ``d`` of the vector space; the hash family is
        bound to it eagerly so inserts can be hashed one at a time.
    num_hashes:
        ``k`` — hash functions in ``g``.
    family:
        Family name (``"cosine"`` / ``"jaccard"``), an
        :class:`~repro.lsh.families.LSHFamily` subclass, or an instance
        (the shard layer shares one across shards; ignores ``random_state``).
    random_state:
        Seed / generator; the family is drawn exactly as the first table
        of the static :class:`~repro.lsh.index.LSHIndex`, so the same seed
        produces the same hash functions.

    Ids are assigned sequentially from 0 in insertion order and are never
    reused, so a :class:`~repro.streaming.events.ChangeLog` recorded
    against one index replays identically onto a fresh one.  A caller may
    instead assign its own ids (``insert(vector, vector_id=…)``) — the
    shard router uses this to keep *global* ids inside per-shard indexes.
    """

    def __init__(
        self,
        dimension: int,
        *,
        num_hashes: int = 20,
        family: Union[str, Type[LSHFamily], LSHFamily] = "cosine",
        random_state: RandomState = None,
    ) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.num_hashes = int(num_hashes)
        self._table = MutableLSHTable(
            bind_family(family, self.num_hashes, self.dimension, random_state)
        )
        self._rows = RowStore(self.dimension)
        self._live = LiveIds()
        self._next_id = 0
        self._observers: List[object] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: VectorCollection,
        *,
        num_hashes: int = 20,
        family: Union[str, Type[LSHFamily], LSHFamily] = "cosine",
        random_state: RandomState = None,
    ) -> "MutableLSHIndex":
        """Bulk-load a collection (ids ``0 … n−1`` in row order)."""
        index = cls(
            collection.dimension,
            num_hashes=num_hashes,
            family=family,
            random_state=random_state,
        )
        index.insert_many(collection.matrix)
        return index

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def family(self) -> LSHFamily:
        """The hash family ``g`` of the table."""
        return self._table.family

    @property
    def size(self) -> int:
        """Number of live vectors ``n``."""
        return len(self._live)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._live

    @property
    def ids(self) -> np.ndarray:
        """Live vector ids (arbitrary but stable order)."""
        return self._live.array()

    @property
    def primary_table(self) -> MutableLSHTable:
        """The table (the name the static index and the estimators share)."""
        return self._table

    @property
    def total_pairs(self) -> int:
        """``M = C(n, 2)`` over the live vectors."""
        n = self.size
        return n * (n - 1) // 2

    @property
    def num_collision_pairs(self) -> int:
        """``N_H`` of the table."""
        return self.primary_table.num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        """``N_L = M − N_H`` of the table."""
        return self.total_pairs - self.num_collision_pairs

    def row(self, vector_id: int) -> sparse.csr_matrix:
        """The stored (raw) vector as a fresh 1×d CSR row."""
        return self._rows.gather_raw([vector_id])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def register_observer(self, observer: object) -> None:
        """Register an object with ``on_insert(id)`` / ``on_delete(id)`` hooks.

        :class:`~repro.streaming.estimator.StreamingEstimator` uses this
        to repair its reservoirs as the collection changes.  Observers
        are notified on every mutation until
        :meth:`unregister_observer` is called — discard short-lived
        estimators explicitly (``estimator.close()``), or they keep
        being repaired forever.
        """
        self._observers.append(observer)

    def unregister_observer(self, observer: object) -> None:
        """Stop notifying ``observer``; a no-op if it is not registered."""
        try:
            self._observers.remove(observer)
        except ValueError:
            pass

    def _claim_id(self, vector_id: Optional[int]) -> int:
        vector_id, self._next_id = claim_vector_id(
            vector_id, self._next_id, self._live
        )
        return vector_id

    def insert(self, vector: VectorInput, *, vector_id: Optional[int] = None) -> int:
        """Insert one vector; returns its id (assigned sequentially unless given).

        Caller-assigned ids must be fresh (never live before) and
        dense-ish — they index the row store's slot map directly, which
        is what the shard router relies on with its sequential global
        ids.
        """
        row = coerce_row(vector, self.dimension)
        return self._insert_prepared(vector_id, row, self.family.hash_matrix(row)[0])

    def _check_signatures(self, signatures: object, shape: Tuple[int, ...]) -> None:
        """Refuse anything but an integer ``shape`` array, before any mutation
        (wire payloads land here; a bad row found mid-batch left rows stored
        and ids live without buckets)."""
        if isinstance(signatures, np.ndarray):
            if signatures.dtype.kind in "iu" and signatures.shape == shape:
                return
            got = f"{signatures.dtype} array of shape {signatures.shape}"
        else:
            got = type(signatures).__name__
        raise ValidationError(f"expected an integer signature array of shape {shape}, got {got}")

    def _insert_prepared(
        self,
        vector_id: Optional[int],
        row: sparse.csr_matrix,
        signature: np.ndarray,
    ) -> int:
        """Insert one already-coerced row with its ``(k,)`` signature (router fast path)."""
        self._check_signatures(signature, (self.num_hashes,))
        vector_id = self._claim_id(vector_id)
        self._rows.add(vector_id, row)
        self._live.add(vector_id)
        self._table.insert(vector_id, signature)
        for observer in self._observers:
            observer.on_insert(vector_id)
        return vector_id

    def insert_many(
        self,
        matrix: Union[sparse.spmatrix, np.ndarray, VectorCollection],
        *,
        vector_ids: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Insert every row of a matrix / collection; returns the assigned ids.

        Signatures are computed in one batch matrix product — the same
        cost profile as a static build — while the bucket insertions
        remain incremental.
        """
        csr = coerce_matrix(matrix, self.dimension)
        return self.insert_many_prepared(vector_ids, csr, self.family.hash_matrix(csr))

    def insert_many_prepared(
        self,
        vector_ids: Optional[Sequence[int]],
        csr: sparse.csr_matrix,
        signatures: np.ndarray,
    ) -> np.ndarray:
        """Bulk-insert already-coerced rows with their ``(rows, k)`` signatures.

        The batch is hashed once; rows are pooled in one append, bucket
        insertions and observer notifications stay per-row (so estimator
        staleness accounting sees the same intermediate sizes a loop of
        ``insert`` calls would produce).
        """
        num_rows = csr.shape[0]
        self._check_signatures(signatures, (num_rows, self.num_hashes))
        if vector_ids is None:
            ids = np.arange(self._next_id, self._next_id + num_rows, dtype=np.int64)
        else:
            ids = np.asarray(list(vector_ids), dtype=np.int64)
            if ids.size != num_rows:
                raise ValidationError(
                    f"got {ids.size} vector ids for {num_rows} rows"
                )
            if np.unique(ids).size != ids.size:
                raise ValidationError("vector ids must be unique within a batch")
            for vector_id in ids:
                claim_vector_id(int(vector_id), self._next_id, self._live)
        # add_many validates the whole batch (range, duplicates) before
        # mutating, so a bad batch leaves the index untouched; only then
        # is _next_id advanced
        self._rows.add_many(ids, csr)
        if num_rows:
            self._next_id = max(self._next_id, int(ids.max()) + 1)
        for position in range(num_rows):
            vector_id = int(ids[position])
            self._live.add(vector_id)
            self._table.insert(vector_id, signatures[position])
            for observer in self._observers:
                observer.on_insert(vector_id)
        return ids

    def delete(self, vector_id: int) -> None:
        """Remove a live vector by id."""
        if vector_id not in self._live:
            raise ValidationError(f"vector id {vector_id} is not in the index")
        self._table.delete(vector_id)
        self._live.remove(vector_id)
        self._rows.remove(vector_id)
        for observer in self._observers:
            observer.on_delete(vector_id)

    # ------------------------------------------------------------------
    # similarity + sampling primitives
    # ------------------------------------------------------------------
    def cosine_pairs(self, left_ids: Sequence[int], right_ids: Sequence[int]) -> np.ndarray:
        """Cosine similarities for many live ``(left, right)`` id pairs.

        Each side is one scipy row index of the row store's normalised
        pool, whose rows were L2-normalised once at insert; the two stacks
        then go through the kernel the static shape uses,
        :func:`~repro.vectors.similarity.pairwise_cosine`.
        """
        left = np.asarray(left_ids, dtype=np.int64)
        right = np.asarray(right_ids, dtype=np.int64)
        if left.shape != right.shape:
            raise ValidationError("left and right id arrays must have the same length")
        if left.size == 0:
            return np.zeros(0, dtype=np.float64)
        pool = self._rows.normalized_pool()
        rows = self._rows.pool_rows(np.concatenate([left.ravel(), right.ravel()]))
        return pairwise_cosine(pool[rows[: left.size]], pool[rows[left.size :]])

    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from stratum H (SampleH)."""
        return self.primary_table.sample_collision_pairs(sample_size, random_state=random_state)

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from stratum L via rejection (SampleL)."""
        return sample_rejected_pairs(
            sample_size, self.num_non_collision_pairs, uniform_pairs_of(self.ids),
            self.primary_table.same_bucket_many, random_state, max_attempts=max_attempts,
        )

    # ------------------------------------------------------------------
    # export / verification
    # ------------------------------------------------------------------
    def to_collection(self) -> Tuple[VectorCollection, np.ndarray]:
        """Materialise the live vectors as an immutable collection.

        Returns ``(collection, ids)`` where ``collection.row(i)`` is the
        vector whose streaming id is ``ids[i]``.  Used by tests and
        benchmarks to compare against a fresh static build.
        """
        if not self._live:
            raise ValidationError("cannot materialise an empty index as a collection")
        ids = self.ids
        stacked = self._rows.gather_raw(ids)
        return VectorCollection(stacked, copy=False), ids

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """A picklable checkpoint: rows, bucket layout, family, estimators.

        Bucket dict iteration order and the live-id order are both
        preserved, so a restored index produces the same sampling draws
        the original would for the same generator state — a shard can be
        checkpointed on one node and revived on another without
        disturbing the merged estimate.

        Registered :class:`~repro.streaming.estimator.StreamingEstimator`
        observers contribute their reservoir state (pairs, staleness
        counters, generator position) under the ``"estimators"`` key, so
        :meth:`from_state` reattaches them with their sampled state
        intact instead of redrawing.
        """
        return INDEX_STATE.dump(
            dimension=self.dimension,
            num_hashes=self.num_hashes,
            num_tables=1,
            next_id=self._next_id,
            live_ids=list(self._live),
            rows=self._rows.state(),
            families=[self.family],
            tables=[self._table.bucket_state()],
            estimators=collect_estimator_states(self._observers),
        )

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MutableLSHIndex":
        """Rebuild an index from :meth:`to_state` output (no re-hashing).

        Estimator states embedded by :meth:`to_state` are restored and
        re-registered as observers; retrieve them via
        ``index.estimators`` (they resume bit-identically).
        """
        check_index_state(state)
        index = cls(
            int(state["dimension"]),
            num_hashes=int(state["num_hashes"]),
            family=state["families"][0],
        )
        index._rows = RowStore.from_state(state["rows"])
        index._live = LiveIds(state["live_ids"])
        index._next_id = int(state["next_id"])
        index._table.load_bucket_state(state["tables"][0])
        restore_estimator_states(index, state.get("estimators", ()))
        return index

    @property
    def estimators(self) -> Tuple[object, ...]:
        """The registered streaming estimators (restored ones included)."""
        return tuple(
            observer
            for observer in self._observers
            if callable(getattr(observer, "to_state", None))
        )

    def check_invariants(self) -> None:
        """Verify the table, live-id and row bookkeeping (tests / debugging aid)."""
        self._table.check_invariants()
        if self._table.num_vectors != self.size:
            raise AssertionError(
                f"table holds {self._table.num_vectors} vectors, index holds {self.size}"
            )
        if len(self._rows) != self.size:
            raise AssertionError("row storage drifted from live-id bookkeeping")
        if set(self._rows) != set(self._live):
            raise AssertionError("row storage holds a different id set than the index")
        self._rows.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableLSHIndex(n={self.size}, d={self.dimension}, "
            f"k={self.num_hashes}, NH={self.num_collision_pairs})"
        )


__all__ = [
    "LiveIds",
    "MutableLSHTable",
    "MutableLSHIndex",
    "bind_family",
    "check_index_state",
    "claim_vector_id",
    "coerce_row",
    "coerce_matrix",
    "signature_bucket_key",
    "freeze_bucket_layout",
    "collect_estimator_states",
    "restore_estimator_states",
]
