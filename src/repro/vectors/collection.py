"""The :class:`VectorCollection` container and the one rule for a valid vector.

A collection is an immutable set of ``n`` sparse vectors over a common
``dimension``-dimensional space, stored as a ``scipy.sparse.csr_matrix``.
The class caches row norms and the L2-normalised matrix because cosine
similarity, the LSH signature computation, and the exact-join ground
truth all need them repeatedly.

Every input becomes stored CSR rows through two functions:
:func:`coerce_mappings` for ``{index: value}`` rows and
:func:`coerce_matrix` for sparse and dense matrices (:func:`coerce_row`
is their one-row case).  A collection, a change event's payload and a
row inserted into any mutable shape therefore store the same row for the
same input, and refuse the same malformed input.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from repro.errors import DimensionMismatchError, EmptyCollectionError, ValidationError

ArrayLike = Union[np.ndarray, Sequence[Sequence[float]]]
VectorInput = Union[Mapping[int, float], Sequence[float], np.ndarray, sparse.spmatrix]

#: the largest dimension scipy indexes with ``int32``
_INT32_MAX = np.iinfo(np.int32).max
#: the exclusive bound on indices when the dimension is inferred
_INT64_MAX = np.iinfo(np.int64).max


def coerce_mappings(
    vectors: Sequence[Mapping[Any, Any]], dimension: Optional[int] = None
) -> sparse.csr_matrix:
    """Canonicalise ``{index: value}`` rows into a fresh CSR matrix.

    The one rule for a valid vector: its indices are integral, lie in
    ``[0, dimension)`` and never repeat within a row (the keys ``1``,
    ``"1"`` and ``"01"`` name one index); its values are real and finite.
    Anything else is a :class:`~repro.errors.ValidationError` (a
    :class:`~repro.errors.DimensionMismatchError` for an index past
    ``dimension``), never a truncated, summed or cast-away entry.  Exact
    zeros (``-0.0`` included) are dropped and each row's indices sorted.
    ``dimension=None`` infers the largest index + 1 (at least 1).

    One mapping, the per-event insert, is sorted and checked in numpy,
    at about half the cost of a pass through :func:`coerce_matrix`; more
    are handed to :func:`coerce_matrix` as one unsorted CSR matrix, about
    8–20 times cheaper than canonicalising them a row at a time.
    """
    num_rows = len(vectors)
    if num_rows == 1:
        keys, values = list(vectors[0].keys()), list(vectors[0].values())
    else:
        keys = list(chain.from_iterable(vector.keys() for vector in vectors))
        values = list(chain.from_iterable(vector.values() for vector in vectors))
    keys = _real_array(keys, "vector indices")
    values = _real_array(values, "vector values")
    if keys.ndim != 1 or values.ndim != 1:
        raise ValidationError("vector indices and values must be single numbers")
    if num_rows == 1:  # sorted first, so the row's ends bound its indices
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        low, high = (keys[0], keys[-1]) if keys.size else (0, -1)
    else:
        low, high = (keys.min(), keys.max()) if keys.size else (0, -1)
    integral = keys == np.floor(keys)
    if not integral.all():
        raise ValidationError(f"vector indices must be integers, got {keys[~integral][0]}")
    limit = _INT64_MAX if dimension is None else dimension
    if low < 0 or high >= limit:
        error = ValidationError if low < 0 else DimensionMismatchError
        raise error(f"vector indices must lie in [0, {limit}), got [{low:.0f}, {high:.0f}]")
    if dimension is None:
        dimension = max(int(high) + 1, 1)
    index_dtype = np.int32 if max(dimension, num_rows, keys.size) <= _INT32_MAX else np.int64
    if num_rows != 1:
        indptr = np.zeros(num_rows + 1, dtype=index_dtype)
        np.cumsum(np.fromiter(map(len, vectors), index_dtype, num_rows), out=indptr[1:])
        unsorted = sparse.csr_matrix(
            (values, keys.astype(index_dtype), indptr), shape=(num_rows, dimension)
        )
        return coerce_matrix(unsorted, dimension, copy=False)
    if not np.isfinite(values).all():
        raise ValidationError("vector values must be finite (no NaN / inf)")
    repeated = keys[1:] == keys[:-1]
    if repeated.any():
        raise ValidationError(f"vector index {keys[1:][repeated][0]:.0f} appears more than once")
    nonzero = values != 0
    data = values[nonzero]
    return sparse.csr_matrix(
        (data, keys[nonzero].astype(index_dtype), np.array([0, data.size], dtype=index_dtype)),
        shape=(1, dimension),
    )


def coerce_matrix(
    matrix: Union[sparse.spmatrix, ArrayLike, VectorCollection],
    dimension: Optional[int] = None,
    *,
    copy: bool = True,
) -> sparse.csr_matrix:
    """Canonicalise a 2-D sparse or dense matrix of vectors into CSR rows.

    Every row obeys the rule of :func:`coerce_mappings`: values real and
    finite, no column twice in one row (a COO matrix's duplicate entries
    are summed by scipy's own conversion before they are seen), else
    :class:`~repro.errors.ValidationError`; explicit zeros are dropped and
    indices sorted.  ``dimension=None`` accepts the matrix's own width.
    A sparse matrix is copied first unless ``copy=False`` hands it over to
    be canonicalised in place.
    """
    if isinstance(matrix, VectorCollection):
        matrix = matrix.matrix
    if sparse.issparse(matrix):
        if matrix.dtype.kind == "c":
            raise ValidationError(f"vector values must be real, got a complex {matrix.dtype}")
        # checked for repeats before the float cast, which would sum them
        csr = matrix.tocsr(copy=copy)
    else:
        dense = _real_array(matrix, "vector values")
        if dense.ndim != 2:
            raise ValidationError(
                f"expected a 2-dimensional matrix of vectors, got ndim={dense.ndim}"
            )
        csr = sparse.csr_matrix(dense)
    if dimension is not None and csr.shape[1] != dimension:
        raise DimensionMismatchError(
            f"matrix dimension {csr.shape[1]} does not match index dimension {dimension}"
        )
    if not csr.has_canonical_format:
        csr.sort_indices()
        if _repeats_an_index(csr):
            raise ValidationError("a vector index appears more than once in one row")
        csr.has_canonical_format = True
    csr = csr.astype(np.float64, copy=False)
    if not np.all(np.isfinite(csr.data)):
        raise ValidationError("vector values must be finite (no NaN / inf)")
    csr.eliminate_zeros()
    return csr


def coerce_row(vector: VectorInput, dimension: int) -> sparse.csr_matrix:
    """Canonicalise one input vector into a fresh 1×``dimension`` CSR row.

    The one-row case of :func:`coerce_mappings` (a mapping) and of
    :func:`coerce_matrix` (a sparse row, or a dense one as a flat
    sequence), so every shape's insert stores a vector bit-for-bit as a
    bulk load of the same input would.
    """
    if isinstance(vector, Mapping):
        return coerce_mappings((vector,), dimension)
    if not sparse.issparse(vector):
        vector = np.atleast_2d(_real_array(vector, "vector values"))
    row = coerce_matrix(vector, dimension)
    if row.shape[0] != 1:
        raise ValidationError(
            f"expected one vector of dimension {dimension}, got shape {row.shape}"
        )
    return row


def _real_array(items: Any, what: str) -> np.ndarray:
    """``items`` as a float64 array, refusing complex and non-numeric entries."""
    try:
        array = np.asarray(items)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{what} must be numbers: {exc}") from None
    if array.dtype.kind == "c":
        raise ValidationError(f"{what} must be real, got a complex {array.dtype}")
    try:
        return array.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be numbers: {exc}") from None


def _repeats_an_index(csr: sparse.csr_matrix) -> bool:
    """Whether some row of ``csr`` (indices sorted) holds one column twice."""
    indices, starts = csr.indices, csr.indptr[1:-1]
    repeated = indices[1:] == indices[:-1]
    # a pair straddling two rows is no repeat
    repeated[starts[(starts > 0) & (starts < indices.size)] - 1] = False
    return bool(repeated.any())


class VectorCollection:
    """An immutable collection of sparse real-valued vectors.

    Parameters
    ----------
    matrix:
        A ``(n, dimension)`` sparse or dense matrix.  Rows are vectors.
        It is canonicalised by :func:`coerce_matrix`.
    copy:
        When true (default) a sparse input matrix is copied so later
        mutation of the caller's matrix cannot corrupt the collection;
        ``False`` hands the matrix over.

    Notes
    -----
    The collection is conceptually immutable: none of the public methods
    mutates ``matrix`` after construction, and derived quantities (norms,
    normalised rows) are cached lazily.
    """

    def __init__(self, matrix: Union[sparse.spmatrix, ArrayLike], *, copy: bool = True) -> None:
        csr = coerce_matrix(matrix, copy=copy)
        if csr.shape[0] == 0:
            raise EmptyCollectionError("a VectorCollection must contain at least one vector")
        if csr.shape[1] == 0:
            raise ValidationError("vectors must have at least one dimension")
        self._matrix = csr
        self._norms: Optional[np.ndarray] = None
        self._normalized: Optional[sparse.csr_matrix] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, array: ArrayLike) -> "VectorCollection":
        """Build a collection from a dense ``(n, d)`` array."""
        return cls(array)

    @classmethod
    def from_sparse(cls, matrix: sparse.spmatrix, *, copy: bool = True) -> "VectorCollection":
        """Build a collection from any scipy sparse matrix."""
        return cls(matrix, copy=copy)

    @classmethod
    def from_dicts(
        cls,
        vectors: Sequence[Mapping[int, float]],
        *,
        dimension: Optional[int] = None,
    ) -> "VectorCollection":
        """Build a collection from ``{dimension_index: value}`` mappings.

        Parameters
        ----------
        vectors:
            One mapping per vector, canonicalised by
            :func:`coerce_mappings`: keys are dimension indices, values
            the weights.
        dimension:
            Total dimensionality.  When omitted it is inferred as
            ``max(index) + 1`` across all vectors.
        """
        if not vectors:
            raise EmptyCollectionError("cannot build a collection from an empty sequence")
        return cls(coerce_mappings(vectors, dimension), copy=False)

    @classmethod
    def from_token_sets(
        cls,
        token_sets: Sequence[Iterable[int]],
        *,
        dimension: Optional[int] = None,
    ) -> "VectorCollection":
        """Build a binary collection from sets of integer token ids.

        Every vector gets value 1.0 at each listed dimension.  This is the
        representation used for the DBLP-like binary data set.
        """
        dicts = [dict.fromkeys(tokens, 1.0) for tokens in token_sets]
        return cls.from_dicts(dicts, dimension=dimension)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> sparse.csr_matrix:
        """The underlying ``(n, dimension)`` CSR matrix (do not mutate)."""
        return self._matrix

    @property
    def size(self) -> int:
        """Number of vectors ``n`` in the collection."""
        return self._matrix.shape[0]

    @property
    def dimension(self) -> int:
        """Dimensionality ``d`` of the vector space."""
        return self._matrix.shape[1]

    @property
    def total_pairs(self) -> int:
        """``M = n * (n - 1) / 2``, the number of unordered distinct pairs."""
        n = self.size
        return n * (n - 1) // 2

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"VectorCollection(n={self.size}, dimension={self.dimension}, "
            f"nnz={self._matrix.nnz})"
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def norms(self) -> np.ndarray:
        """Per-vector L2 norms, shape ``(n,)`` (cached)."""
        if self._norms is None:
            squared = np.asarray(self._matrix.multiply(self._matrix).sum(axis=1)).ravel()
            self._norms = np.sqrt(squared)
        return self._norms

    @property
    def normalized_matrix(self) -> sparse.csr_matrix:
        """Row-normalised CSR matrix (zero rows stay zero), cached."""
        if self._normalized is None:
            norms = self.norms.copy()
            norms[norms == 0.0] = 1.0
            inverse = sparse.diags(1.0 / norms)
            normalized = (inverse @ self._matrix).tocsr()
            normalized.sort_indices()
            self._normalized = normalized
        return self._normalized

    @property
    def nnz_per_row(self) -> np.ndarray:
        """Number of non-zero features per vector (vector "length")."""
        return np.diff(self._matrix.indptr)

    # ------------------------------------------------------------------
    # access helpers
    # ------------------------------------------------------------------
    def row(self, index: int) -> sparse.csr_matrix:
        """Return vector ``index`` as a ``(1, dimension)`` CSR row."""
        self._check_index(index)
        return self._matrix.getrow(index)

    def row_dense(self, index: int) -> np.ndarray:
        """Return vector ``index`` as a dense 1-D array."""
        return np.asarray(self.row(index).todense()).ravel()

    def row_dict(self, index: int) -> Dict[int, float]:
        """Return vector ``index`` as a ``{dimension: value}`` dict."""
        row = self.row(index)
        return {int(i): float(v) for i, v in zip(row.indices, row.data)}

    def subset(self, indices: Sequence[int]) -> "VectorCollection":
        """Return a new collection restricted to ``indices`` (in order)."""
        index_array = np.asarray(indices, dtype=np.int64)
        if index_array.ndim != 1 or index_array.size == 0:
            raise ValidationError("subset requires a non-empty 1-D index sequence")
        if index_array.min() < 0 or index_array.max() >= self.size:
            raise ValidationError("subset indices out of range")
        return VectorCollection(self._matrix[index_array], copy=False)

    def concat(self, other: "VectorCollection") -> "VectorCollection":
        """Concatenate two collections over the same dimensionality."""
        if other.dimension != self.dimension:
            raise DimensionMismatchError(
                f"cannot concat collections with dimensions {self.dimension} and {other.dimension}"
            )
        stacked = sparse.vstack([self._matrix, other.matrix], format="csr")
        return VectorCollection(stacked, copy=False)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise ValidationError(f"vector index {index} out of range [0, {self.size})")


__all__ = ["VectorCollection", "VectorInput", "coerce_mappings", "coerce_matrix", "coerce_row"]
