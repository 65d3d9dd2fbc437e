"""A mutable LSH index: the paper's extended index under insert/delete.

:class:`MutableLSHIndex` holds one :class:`~repro.lsh.table.LSHTable` —
the same bucket table the static shape bulk-builds — started empty and
fed one ``insert`` / ``delete`` at a time, so the paper's bucket-count
bookkeeping (``N_H = Σ_j C(b_j, 2)``) stays *exact* at every step.  A
vector's signature is computed through the same
:meth:`~repro.lsh.families.LSHFamily.hash_matrix` code path as the batch
build and never changes, so a surviving pair never migrates between
stratum H and stratum L.  Around the table the index keeps stable
sequential ids (or caller-assigned ids), pooled row storage
(:class:`~repro.streaming.rowstore.RowStore`) for fast per-pair cosine
evaluation, and observers; SampleH / SampleL and the live-id population
are the table's (:class:`repro.streaming.estimator.StreamingEstimator`
builds on these).

Because signatures are deterministic given the family seed, replaying a
:class:`~repro.streaming.events.ChangeLog` through a mutable index yields
exactly the strata sizes (``N_H`` / ``N_L``) a fresh batch build over the
final collection would produce.

Indexes are checkpointed with :meth:`MutableLSHIndex.to_state` and
revived with :meth:`MutableLSHIndex.from_state`: the state holds the
rows, the bucket layout (including bucket order, so sampling draws
replay identically), the live-id order and the hash family itself, under
one-element ``tables`` / ``families`` lists (``num_tables: 1``; more is
refused).  The one snapshot *file* format is the engine bundle
(:meth:`repro.engine.JoinEstimationEngine.snapshot`).
"""

from __future__ import annotations

from numbers import Integral
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.lsh.families import LSHFamily, SignRandomProjectionFamily, check_cosine_family
from repro.lsh.signatures import signature_keys
from repro.lsh.table import LSHTable
from repro.rng import RandomState, ensure_rng, spawn
from repro.state import StateSpec
from repro.streaming.rowstore import _MAX_ID, RowStore
from repro.vectors.collection import VectorCollection, VectorInput, coerce_matrix, coerce_row
from repro.vectors.similarity import pairwise_cosine

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
    if not isinstance(families[0], SignRandomProjectionFamily):
        INDEX_STATE.refuse(
            f"its family is a {type(families[0]).__name__}; the estimators evaluate "
            "cosine, so it must be a SignRandomProjectionFamily"
        )


def bind_family(
    family: Union[str, LSHFamily], num_hashes: int, dimension: int,
    random_state: RandomState,
) -> LSHFamily:
    """A mutable index's hash family, bound to ``dimension``: only cosine
    SimHash is accepted (:func:`~repro.lsh.families.check_cosine_family`).
    An instance is checked against ``k``; the name ``"cosine"`` draws one
    from ``spawn(rng, 1)`` exactly as the static
    :class:`~repro.lsh.index.LSHIndex` draws its first table's, so the
    same seed hashes identically."""
    check_cosine_family(family)
    if isinstance(family, LSHFamily):
        if family.num_hashes != num_hashes:
            raise ValidationError(f"family has k={family.num_hashes}, index expects k={num_hashes}")
    else:
        (child,) = spawn(ensure_rng(random_state), 1)
        family = SignRandomProjectionFamily(num_hashes, random_state=child)
    family.ensure_initialised(dimension)
    return family


def claim_vector_id(
    vector_id: Optional[int], next_id: int, table: LSHTable
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
        if vector_id in table:
            raise ValidationError(f"vector id {vector_id} is already in the index")
    return vector_id, max(next_id, vector_id + 1)


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
        The name ``"cosine"``, or a
        :class:`~repro.lsh.families.SignRandomProjectionFamily` instance
        (ignores ``random_state``); any other family is refused.
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
        family: Union[str, LSHFamily] = "cosine",
        random_state: RandomState = None,
    ) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        self.num_hashes = int(num_hashes)
        self._table = LSHTable(bind_family(family, self.num_hashes, self.dimension, random_state))
        self._rows = RowStore(self.dimension)
        self._next_id = 0
        self._observers: List[object] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: VectorCollection,
        *,
        num_hashes: int = 20,
        family: Union[str, LSHFamily] = "cosine",
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
        return self._table.num_vectors

    def __len__(self) -> int:
        return self.size

    def __contains__(self, vector_id: int) -> bool:
        return vector_id in self._table

    @property
    def ids(self) -> np.ndarray:
        """Live vector ids (arbitrary but stable order)."""
        return self._table.ids

    @property
    def primary_table(self) -> LSHTable:
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
            vector_id, self._next_id, self._table
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
                claim_vector_id(int(vector_id), self._next_id, self._table)
        # add_many validates the whole batch (range, duplicates) before
        # mutating, so a bad batch leaves the index untouched; only then
        # is _next_id advanced
        self._rows.add_many(ids, csr)
        if num_rows:
            self._next_id = max(self._next_id, int(ids.max()) + 1)
        keys = signature_keys(signatures)
        for position in range(num_rows):
            vector_id = int(ids[position])
            self._table.insert_key(vector_id, keys[position])
            for observer in self._observers:
                observer.on_insert(vector_id)
        return ids

    def delete(self, vector_id: int) -> None:
        """Remove a live vector by id."""
        if vector_id not in self._table:
            raise ValidationError(f"vector id {vector_id} is not in the index")
        self._table.delete(vector_id)
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
        return self._table.sample_collision_pairs(sample_size, random_state=random_state)

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from stratum L via rejection (SampleL)."""
        return self._table.sample_non_collision_pairs(
            sample_size, random_state=random_state, max_attempts=max_attempts
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
        if not self.size:
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
            live_ids=self._table.ids.tolist(),
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
        live_ids = np.asarray(state["live_ids"], dtype=np.int64)
        if not np.array_equal(np.sort(live_ids), index._rows.ids()):
            INDEX_STATE.refuse("its live ids are not exactly its rows' ids")
        try:
            index._table.load_bucket_state(state["tables"][0], live_ids.tolist())
        except ValidationError as error:
            INDEX_STATE.refuse(str(error))
        index._next_id = int(state["next_id"])
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
        """Verify the table and row bookkeeping (tests / debugging aid)."""
        self._table.check_invariants()
        if len(self._rows) != self.size:
            raise AssertionError("row storage drifted from live-id bookkeeping")
        if set(self._rows) != set(self._table.ids.tolist()):
            raise AssertionError("row storage holds a different id set than the index")
        self._rows.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"MutableLSHIndex(n={self.size}, d={self.dimension}, "
            f"k={self.num_hashes}, NH={self.num_collision_pairs})"
        )


__all__ = [
    "MutableLSHIndex",
    "bind_family",
    "check_index_state",
    "claim_vector_id",
    "collect_estimator_states",
    "restore_estimator_states",
]
