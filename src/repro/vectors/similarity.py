"""Cosine similarity, the one similarity measure of the VSJ problem.

Every estimator evaluates cosine.  The functions accept either dense 1-D
arrays, sparse rows, or ``(collection, index)`` pairs via the vectorised
helpers; :func:`cosine_to_angular_collision` maps cosine to the SimHash
collision probability the analytical estimators reason with.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
from scipy import sparse

from repro.errors import DimensionMismatchError, ValidationError
from repro.vectors.collection import VectorCollection

VectorLike = Union[np.ndarray, Sequence[float], sparse.spmatrix]


def _as_dense(vector: VectorLike) -> np.ndarray:
    if sparse.issparse(vector):
        dense = np.asarray(vector.todense()).ravel()
    else:
        dense = np.asarray(vector, dtype=np.float64).ravel()
    return dense


def cosine_similarity(u: VectorLike, v: VectorLike) -> float:
    """Cosine similarity ``u·v / (‖u‖‖v‖)`` between two vectors.

    Returns 0.0 when either vector has zero norm (the convention used by
    the exact join so that empty documents never join with anything).
    """
    u_dense = _as_dense(u)
    v_dense = _as_dense(v)
    if u_dense.shape != v_dense.shape:
        raise DimensionMismatchError(
            f"cosine_similarity requires equal-length vectors, got {u_dense.shape} and {v_dense.shape}"
        )
    norm_u = float(np.linalg.norm(u_dense))
    norm_v = float(np.linalg.norm(v_dense))
    if norm_u == 0.0 or norm_v == 0.0:
        return 0.0
    value = float(np.dot(u_dense, v_dense) / (norm_u * norm_v))
    return float(np.clip(value, -1.0, 1.0))


def pairwise_cosine(rows_left: sparse.csr_matrix, rows_right: sparse.csr_matrix) -> np.ndarray:
    """Row-wise cosine of two aligned stacks of L2-normalised CSR rows.

    The one cosine kernel: every shape gathers its normalised rows with
    one scipy row index and evaluates them here.
    """
    products = rows_left.multiply(rows_right).sum(axis=1)
    return np.clip(np.asarray(products).ravel(), -1.0, 1.0)


def cosine_pairs(
    collection: VectorCollection,
    left_indices: Sequence[int],
    right_indices: Sequence[int],
    *,
    other: Optional[VectorCollection] = None,
) -> np.ndarray:
    """Cosine similarities for many ``(left, right)`` index pairs at once.

    The workhorse of every sampling-based estimator: given ``m`` sampled
    pairs it returns an ``(m,)`` array of similarities in one sparse
    operation.  Left indices must lie in ``[0, collection.size)`` and
    right ones in ``[0, other.size)``; the first one outside is refused
    with :class:`~repro.errors.ValidationError`.
    """
    other = collection if other is None else other
    if other.dimension != collection.dimension:
        raise DimensionMismatchError(
            f"cosine_pairs requires collections of one dimension, got "
            f"{collection.dimension} and {other.dimension}"
        )
    left = np.asarray(left_indices, dtype=np.int64)
    right = np.asarray(right_indices, dtype=np.int64)
    if left.shape != right.shape:
        raise ValidationError("left and right index arrays must have the same length")
    if left.size == 0:
        return np.zeros(0, dtype=np.float64)
    if min(left.min(), right.min()) < 0 or left.max() >= collection.size or (
        right.max() >= other.size
    ):
        left_bad = (left < 0) | (left >= collection.size)
        position = int(np.argmax(left_bad | (right < 0) | (right >= other.size)))
        side, index, size = (
            ("left", left, collection.size)
            if left_bad.flat[position]
            else ("right", right, other.size)
        )
        raise ValidationError(f"{side} index {int(index.flat[position])} is outside [0, {size})")
    return pairwise_cosine(collection.normalized_matrix[left], other.normalized_matrix[right])


def cosine_similarity_matrix(
    collection: VectorCollection,
    other: Optional[VectorCollection] = None,
    *,
    dense: bool = True,
) -> Union[np.ndarray, sparse.csr_matrix]:
    """Full cosine similarity matrix between two (small) collections.

    This is intended for tests and small examples; the exact-join module
    (:mod:`repro.join.exact`) provides the block-wise variant that scales
    to the benchmark collections without materialising ``n × n`` floats.
    """
    other = collection if other is None else other
    if other.dimension != collection.dimension:
        raise DimensionMismatchError(
            "collections must share a dimension to compute a similarity matrix"
        )
    product = collection.normalized_matrix @ other.normalized_matrix.T
    if dense:
        return np.clip(np.asarray(product.todense()), -1.0, 1.0)
    return product.tocsr()


def cosine_to_angular_collision(similarity: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Map cosine similarity to the sign-random-projection collision probability.

    Charikar's hyperplane LSH has ``P[h(u) = h(v)] = 1 − θ(u, v) / π`` with
    ``θ = arccos(cos(u, v))``.  The analytical estimators (J_U, LSH-S) use
    this transform so that the idealised LSH property of Definition 3
    (``P = sim``) holds for the *transformed* similarity.
    """
    clipped = np.clip(similarity, -1.0, 1.0)
    collision = 1.0 - np.arccos(clipped) / np.pi
    if np.isscalar(similarity):
        return float(collision)
    return collision


def angular_collision_to_cosine(collision: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
    """Inverse of :func:`cosine_to_angular_collision`."""
    clipped = np.clip(collision, 0.0, 1.0)
    cosine = np.cos((1.0 - clipped) * np.pi)
    if np.isscalar(collision):
        return float(cosine)
    return cosine


__all__ = [
    "cosine_similarity",
    "cosine_pairs",
    "pairwise_cosine",
    "cosine_similarity_matrix",
    "cosine_to_angular_collision",
    "angular_collision_to_cosine",
]
