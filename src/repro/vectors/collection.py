"""The :class:`VectorCollection` container used by every other subsystem.

A collection is an immutable set of ``n`` sparse vectors over a common
``dimension``-dimensional space, stored as a ``scipy.sparse.csr_matrix``.
The class caches row norms and the L2-normalised matrix because cosine
similarity, the LSH signature computation, and the exact-join ground
truth all need them repeatedly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

import numpy as np
from scipy import sparse

from repro.errors import DimensionMismatchError, EmptyCollectionError, ValidationError

ArrayLike = Union[np.ndarray, Sequence[Sequence[float]]]


class VectorCollection:
    """An immutable collection of sparse real-valued vectors.

    Parameters
    ----------
    matrix:
        A ``(n, dimension)`` sparse or dense matrix.  Rows are vectors.
    copy:
        When true (default) the input matrix is copied so later mutation
        of the caller's matrix cannot corrupt the collection.

    Notes
    -----
    The collection is conceptually immutable: none of the public methods
    mutates ``matrix`` after construction, and derived quantities (norms,
    normalised rows) are cached lazily.
    """

    def __init__(self, matrix: Union[sparse.spmatrix, ArrayLike], *, copy: bool = True) -> None:
        csr = self._coerce_matrix(matrix, copy=copy)
        if csr.shape[0] == 0:
            raise EmptyCollectionError("a VectorCollection must contain at least one vector")
        if csr.shape[1] == 0:
            raise ValidationError("vectors must have at least one dimension")
        if not np.all(np.isfinite(csr.data)):
            raise ValidationError("vector values must be finite (no NaN / inf)")
        self._matrix = csr
        self._norms: Optional[np.ndarray] = None
        self._normalized: Optional[sparse.csr_matrix] = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_matrix(matrix: Union[sparse.spmatrix, ArrayLike], *, copy: bool) -> sparse.csr_matrix:
        if sparse.issparse(matrix):
            csr = matrix.tocsr(copy=copy)
        else:
            array = np.asarray(matrix, dtype=np.float64)
            if array.ndim != 2:
                raise ValidationError(
                    f"expected a 2-dimensional matrix of vectors, got ndim={array.ndim}"
                )
            csr = sparse.csr_matrix(array)
        csr = csr.astype(np.float64)
        csr.eliminate_zeros()
        csr.sort_indices()
        return csr

    @classmethod
    def from_dense(cls, array: ArrayLike) -> "VectorCollection":
        """Build a collection from a dense ``(n, d)`` array."""
        return cls(np.asarray(array, dtype=np.float64))

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
            One mapping per vector.  Keys are non-negative dimension
            indices, values are the (float) weights.
        dimension:
            Total dimensionality.  When omitted it is inferred as
            ``max(index) + 1`` across all vectors.
        """
        if not vectors:
            raise EmptyCollectionError("cannot build a collection from an empty sequence")
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        max_index = -1
        for row_id, mapping in enumerate(vectors):
            for index, value in mapping.items():
                index = int(index)
                if index < 0:
                    raise ValidationError(f"dimension indices must be >= 0, got {index}")
                max_index = max(max_index, index)
                rows.append(row_id)
                cols.append(index)
                data.append(float(value))
        inferred = max_index + 1 if max_index >= 0 else 1
        if dimension is None:
            dimension = inferred
        elif dimension < inferred:
            raise DimensionMismatchError(
                f"dimension={dimension} is smaller than the largest index + 1 ({inferred})"
            )
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(vectors), dimension), dtype=np.float64
        )
        return cls(matrix, copy=False)

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
        dicts = [{int(token): 1.0 for token in tokens} for tokens in token_sets]
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


__all__ = ["VectorCollection"]
