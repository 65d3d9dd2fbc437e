"""Pooled CSR row storage for the mutable index.

:class:`~repro.streaming.mutable_index.MutableLSHIndex` originally kept
one 1×d ``csr_matrix`` object per vector and served ``cosine_pairs`` by
``sparse.vstack``-ing the sampled rows — thousands of single-row matrix
constructions per query, which made mutable-path queries several times
slower than the static path (ROADMAP, E13).

:class:`RowStore` keeps every row in one append-ordered CSR pool, twice
over the same ``indices`` / ``indptr`` layout: the raw values (snapshots,
``to_collection``) and the row L2-normalised (every cosine):

* **normalised once, at insert** — the one append path computes each
  row's inverse norm and stores ``data * inv_norm`` beside the raw
  values, so a read computes and writes nothing;
* **one scipy row index per gather** — ids map to pool rows through a
  dense id-indexed array, and a gather is one CSR row index of the pool,
  the C kernel the static shape runs on ``normalized_matrix``;
* **tombstones and deferred compaction** — a delete only unmaps its pool
  row; the pool is rewritten once its dead entries outnumber the live
  ones.

Norms are segment sums in index order (``np.add.reduceat``), the
accumulation order of scipy's row sum behind the static
:attr:`~repro.vectors.collection.VectorCollection.normalized_matrix`, so
cosine values served from the store are bit-identical to the static
query path.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, cast

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.state import StateSpec

_MIN_CAPACITY = 1024
_MIN_ROWS = 64
_COMPACTION_FLOOR = 4096
#: Highest admissible vector id.  The id → row map is a dense array (that
#: is what makes gathers fully vectorised), so ids far beyond the live row
#: count would translate directly into allocated memory; the cap turns a
#: runaway allocation into a validation error.  2^27 ids = 1 GiB of map.
_MAX_ID = 1 << 27
#: Pool offsets are int32, the index type scipy then uses without a copy.
_MAX_POOL_NNZ = int(np.iinfo(np.int32).max)

ROW_STORE_STATE = StateSpec(
    "a row-store state",
    {"dimension": Integral, "ids": (list, tuple), "matrix": sparse.spmatrix},
    format=None,
)


def _grown(array: np.ndarray, needed: int, fill: float = 0) -> np.ndarray:
    """``array`` with room for ``needed`` entries (doubling), contents kept."""
    if needed <= array.size:
        return array
    capacity = max(array.size, 1)
    while capacity < needed:
        capacity *= 2
    grown = np.full(capacity, fill, dtype=array.dtype)
    grown[: array.size] = array
    return grown


def _inverse_norms(data: np.ndarray, indptr: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``1 / ‖row‖₂`` of every CSR row (1.0 for zero rows), summed in index order."""
    nonempty = lengths > 0
    sums = np.zeros(lengths.size, dtype=np.float64)
    if data.size:
        sums[nonempty] = np.add.reduceat(data * data, indptr[:-1][nonempty])
    norms = np.sqrt(sums)
    norms[norms == 0.0] = 1.0
    return 1.0 / norms


class RowStore:
    """Flat pooled storage of sparse rows keyed by non-negative vector id.

    Ids index a dense row map, so they are expected to be dense-ish
    (sequentially assigned, never reused — the `MutableLSHIndex`
    contract); ids beyond ``_MAX_ID`` are rejected rather than allowed
    to size the map.
    """

    def __init__(self, dimension: int) -> None:
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = int(dimension)
        # the pool: raw and normalised values over one indices/indptr layout
        self._data = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._unit = np.empty(_MIN_CAPACITY, dtype=np.float64)
        self._indices = np.empty(_MIN_CAPACITY, dtype=np.int32)
        self._indptr = np.zeros(_MIN_ROWS + 1, dtype=np.int32)
        self._rows = 0  # pool rows, tombstones included
        self._size = 0
        self._live_nnz = 0
        # id → pool row and pool row → id (-1 = absent / tombstone)
        self._row_of = np.full(_MIN_ROWS, -1, dtype=np.int64)
        self._id_of_row = np.full(_MIN_ROWS, -1, dtype=np.int64)
        # the normalised pool as a CSR view, kept by batch appends and
        # compaction; a one-row append drops it, and reads then build their own
        self._normalized_view: Optional[sparse.csr_matrix] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, vector_id: int) -> bool:
        return 0 <= vector_id < self._row_of.size and self._row_of[vector_id] >= 0

    def ids(self) -> np.ndarray:
        """Live vector ids in increasing order."""
        return np.flatnonzero(self._row_of >= 0)

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self.ids())

    def __getitem__(self, vector_id: int) -> sparse.csr_matrix:
        """Materialise one raw row as a fresh 1×d CSR matrix."""
        return self.gather_raw([vector_id])

    @property
    def nnz(self) -> int:
        """Total non-zeros across live rows."""
        return self._live_nnz

    @property
    def _used(self) -> int:
        return int(self._indptr[self._rows])

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, vector_id: int, row: sparse.csr_matrix) -> None:
        """Append one canonicalised 1×d CSR row under ``vector_id``."""
        vector_id = int(vector_id)
        if not 0 <= vector_id < _MAX_ID:
            raise ValidationError(f"vector ids must lie in [0, {_MAX_ID})")
        if vector_id in self:
            raise ValidationError(f"vector id {vector_id} is already stored")
        self._append(np.array([vector_id], dtype=np.int64), row, vector_id + 1)

    def add_many(self, vector_ids: Sequence[int], matrix: sparse.csr_matrix) -> None:
        """Append the rows of ``matrix`` under the given ids.

        The ids, the matrix width and its column indices are all checked
        before anything is written, so a bad batch leaves the store
        unchanged.
        """
        ids = np.asarray(vector_ids, dtype=np.int64).ravel()
        id_span = 0
        if ids.size:
            id_span = int(ids.max()) + 1
            if ids.min() < 0 or id_span > _MAX_ID:
                raise ValidationError(f"vector ids must lie in [0, {_MAX_ID})")
            known = ids[ids < self._row_of.size]
            stored = known[self._row_of[known] >= 0]
            if stored.size:
                raise ValidationError(f"vector id {int(stored[0])} is already stored")
            if np.unique(ids).size != ids.size:
                raise ValidationError("vector ids must be unique within a batch")
        self._append(ids, matrix, id_span)

    def _append(self, ids: np.ndarray, matrix: sparse.csr_matrix, id_span: int) -> None:
        """The one append path, for checked new ids below ``id_span``: refuses
        rows that do not fit the store, then writes them raw and L2-normalised."""
        count, nnz, start, first = ids.size, int(matrix.nnz), self._used, self._rows
        if matrix.shape != (count, self.dimension):
            raise ValidationError(
                f"got a {matrix.shape[0]}×{matrix.shape[1]} matrix for {count} ids "
                f"of dimension {self.dimension}"
            )
        columns = matrix.indices[:nnz]
        if nnz and (columns.min() < 0 or columns.max() >= self.dimension):
            raise ValidationError(f"column indices must lie in [0, {self.dimension})")
        stop = start + nnz
        if stop > _MAX_POOL_NNZ:
            raise ValidationError(f"the row pool holds at most {_MAX_POOL_NNZ} non-zeros")
        if stop > self._data.size:  # the three value/index pools share one size
            self._data = _grown(self._data, stop)
            self._unit = _grown(self._unit, stop)
            self._indices = _grown(self._indices, stop)
        self._indptr = _grown(self._indptr, first + count + 1)
        self._id_of_row = _grown(self._id_of_row, first + count, -1)
        self._row_of = _grown(self._row_of, id_span, -1)
        data = self._data[start:stop]
        data[:] = matrix.data[:nnz]
        indptr = matrix.indptr
        lengths = indptr[1:] - indptr[:-1]
        self._unit[start:stop] = data * np.repeat(_inverse_norms(data, indptr, lengths), lengths)
        self._indices[start:stop] = matrix.indices[:nnz]
        self._indptr[first + 1 : first + count + 1] = indptr[1:] + start
        self._id_of_row[first : first + count] = ids
        self._row_of[ids] = np.arange(first, first + count)
        self._rows += count
        self._size += count
        self._live_nnz += nnz
        # a view costs more to build than a one-row append: streamed inserts drop it
        self._normalized_view = self._pool(self._unit) if count > 1 else None

    def remove(self, vector_id: int) -> None:
        """Drop a row; pool space is reclaimed lazily by compaction."""
        if vector_id not in self:
            raise ValidationError(f"vector id {vector_id} is not in the store")
        row = int(self._row_of[vector_id])
        self._row_of[vector_id] = -1
        self._id_of_row[row] = -1
        self._size -= 1
        self._live_nnz -= int(self._indptr[row + 1] - self._indptr[row])
        dead = (self._used - self._live_nnz) + (self._rows - self._size)
        if dead > max(self._live_nnz + self._size, _COMPACTION_FLOOR):
            self._compact()

    def remove_many(self, vector_ids: Sequence[int]) -> None:
        """Drop many rows; a bad id refuses the whole call before any removal."""
        ids = [int(vector_id) for vector_id in vector_ids]
        for vector_id in ids:
            if vector_id not in self:
                raise ValidationError(f"vector id {vector_id} is not in the store")
        if len(set(ids)) != len(ids):
            raise ValidationError("vector ids to remove must be unique")
        for vector_id in ids:
            self.remove(vector_id)

    def _compact(self) -> None:
        """Rewrite the pool keeping only live rows, in pool order."""
        live = np.flatnonzero(self._id_of_row[: self._rows] >= 0)
        raw = self._pool(self._data)[live]
        self._unit = self._pool(self._unit)[live].data
        self._data, self._indices, self._indptr = raw.data, raw.indices, raw.indptr
        ids = self._id_of_row[live]
        self._id_of_row = np.full(max(live.size, _MIN_ROWS), -1, dtype=np.int64)
        self._id_of_row[: live.size] = ids
        self._row_of[ids] = np.arange(live.size)
        self._rows = live.size
        self._normalized_view = self._pool(self._unit)

    # ------------------------------------------------------------------
    # gathering
    # ------------------------------------------------------------------
    def _pool(self, values: np.ndarray) -> sparse.csr_matrix:
        """The pool over ``values`` (raw or normalised) as a CSR view."""
        used = self._used
        return sparse.csr_matrix(
            (values[:used], self._indices[:used], self._indptr[: self._rows + 1]),
            shape=(self._rows, self.dimension),
        )

    def normalized_pool(self) -> sparse.csr_matrix:
        """Every pool row L2-normalised, tombstones included, as one CSR view.

        Index it with :meth:`pool_rows`; the view is stale after the next
        insert or compaction.
        """
        return self._pool(self._unit) if self._normalized_view is None else self._normalized_view

    def pool_rows(self, vector_ids: Sequence[int]) -> np.ndarray:
        """The pool row of every id; refuses the first id not stored."""
        ids = np.asarray(vector_ids, dtype=np.int64).ravel()
        if ids.size == 0 or (ids.min() >= 0 and ids.max() < self._row_of.size):
            rows = self._row_of[ids]
            if rows.size == 0 or rows.min() >= 0:
                return rows
        missing = next(int(i) for i in ids if i not in self)
        raise ValidationError(f"vector id {missing} is not in the index")

    def gather_raw(self, vector_ids: Sequence[int]) -> sparse.csr_matrix:
        """The requested raw rows stacked into one fresh CSR matrix."""
        return self._pool(self._data)[self.pool_rows(vector_ids)]

    def gather_normalized(self, vector_ids: Sequence[int]) -> sparse.csr_matrix:
        """The requested rows L2-normalised, stacked into one CSR matrix."""
        return self.normalized_pool()[self.pool_rows(vector_ids)]

    def csr_parts(
        self, vector_ids: Sequence[int], *, normalized: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(data, indices, indptr)`` of the requested rows, in request order."""
        rows = self.gather_normalized(vector_ids) if normalized else self.gather_raw(vector_ids)
        return rows.data, rows.indices, rows.indptr

    # ------------------------------------------------------------------
    # serialisation (snapshot/restore substrate)
    # ------------------------------------------------------------------
    def state(self) -> Dict[str, object]:
        """A picklable snapshot of the live rows (ids + one CSR matrix)."""
        ids = self.ids()
        matrix = self.gather_raw(ids) if ids.size else sparse.csr_matrix((0, self.dimension))
        return ROW_STORE_STATE.dump(dimension=self.dimension, ids=ids.tolist(), matrix=matrix)

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "RowStore":
        ROW_STORE_STATE.check(state)
        store = cls(int(state["dimension"]))
        ids = cast(List[int], state["ids"])
        store.add_many(ids, cast(sparse.spmatrix, state["matrix"]).tocsr())
        return store

    def check_invariants(self) -> None:
        """Verify row map and pool bookkeeping (tests / debugging aid)."""
        live_rows = np.flatnonzero(self._id_of_row[: self._rows] >= 0)
        if live_rows.size != self._size:
            raise AssertionError("live row count drifted")
        ids = self._id_of_row[live_rows]
        mapped = int((self._row_of >= 0).sum())
        if not np.array_equal(self._row_of[ids], live_rows) or mapped != self._size:
            raise AssertionError("id ↔ row mapping drifted")
        indptr = self._indptr[: self._rows + 1]
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0) or self._used > self._data.size:
            raise AssertionError("row extents out of pool bounds")
        if int((indptr[live_rows + 1] - indptr[live_rows]).sum()) != self._live_nnz:
            raise AssertionError("live nnz bookkeeping drifted")
        used = self._used
        lengths = np.diff(indptr)
        unit = self._data[:used] * np.repeat(
            _inverse_norms(self._data[:used], indptr, lengths), lengths
        )
        if not np.array_equal(unit, self._unit[:used]):
            raise AssertionError("normalised pool drifted from the raw one")
        view = self._normalized_view
        if view is not None and not (
            view.shape == (self._rows, self.dimension)
            and np.array_equal(view.indptr, indptr)
            and np.array_equal(view.indices, self._indices[:used])
            and np.array_equal(view.data, self._unit[:used])
        ):
            raise AssertionError("the normalised view is stale")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RowStore(rows={len(self)}, nnz={self._live_nnz}, "
            f"pool={self._used}/{self._data.size})"
        )


__all__ = ["RowStore"]
