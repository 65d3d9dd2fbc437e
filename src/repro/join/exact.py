"""Exact cosine-similarity joins: the one ground-truth oracle.

The benchmark collections are small enough (thousands of vectors) that
every pair similarity can be enumerated by block-wise sparse matrix
products of the row-normalised collections.  Each block touches only
``BLOCK_SIZE × n`` pair similarities and only the non-zero dot products
are materialised, so memory stays bounded even for low thresholds where
the join itself is enormous.  Every exact answer of :mod:`repro.join` —
the join sizes here, :class:`~repro.join.histogram.SimilarityHistogram`
and :func:`~repro.join.allpairs.all_pairs_join` — reads its pairs from
:func:`_block_pairs`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.vectors.collection import VectorCollection

#: Rows of the left collection per sparse product.
BLOCK_SIZE = 512
#: A pair within this of a threshold counts as reaching it, so that
#: round-off cannot drop a pair that sits exactly on ``τ``.
SIMILARITY_TOLERANCE = 1e-12


def _block_pairs(
    left: VectorCollection, right: Optional[VectorCollection] = None
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(left_ids, right_ids, similarity)`` arrays, one row block at a time.

    Every pair with a stored dot product appears once, its similarity
    capped at 1.0; pairs sharing no dimension (similarity 0) never do.
    Without ``right`` this is the self-join of ``left`` and only pairs
    ``u < v`` are yielded (Definition 1: unordered, distinct pairs).
    """
    normalized_left = left.normalized_matrix
    for start in range(0, left.size, BLOCK_SIZE):
        rows = normalized_left[start : start + BLOCK_SIZE]
        if right is None:
            # the columns left of the block hold only lower-triangle pairs
            block = (rows @ normalized_left[start:].T).tocoo()
            left_ids, right_ids = block.row + start, block.col + start
            upper = right_ids > left_ids
            yield left_ids[upper], right_ids[upper], np.minimum(block.data[upper], 1.0)
        else:
            block = (rows @ right.normalized_matrix.T).tocoo()
            yield block.row + start, block.col, np.minimum(block.data, 1.0)


def _count_at_least(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray, np.ndarray]], thresholds: Sequence[float]
) -> np.ndarray:
    lower = np.asarray(list(thresholds), dtype=np.float64)
    if lower.size == 0:
        raise ValidationError("at least one threshold is required")
    if np.any(lower <= 0.0) or np.any(lower > 1.0):
        raise ValidationError("thresholds must lie in (0, 1]")
    lower -= SIMILARITY_TOLERANCE
    counts = np.zeros(lower.size, dtype=np.int64)
    for _, _, similarity in blocks:
        counts += [np.count_nonzero(similarity >= bound) for bound in lower]
    return counts


def exact_join_sizes(collection: VectorCollection, thresholds: Sequence[float]) -> np.ndarray:
    """Exact self-join sizes ``J(τ)`` for every ``τ`` in ``thresholds``.

    Only pairs ``(u, v)`` with ``u < v`` are counted, matching
    Definition 1 (unordered, distinct pairs).
    """
    return _count_at_least(_block_pairs(collection), thresholds)


def exact_join_size(collection: VectorCollection, threshold: float) -> int:
    """Exact self-join size ``J(τ)`` for a single threshold."""
    return int(exact_join_sizes(collection, [threshold])[0])


def exact_general_join_sizes(
    left: VectorCollection, right: VectorCollection, thresholds: Sequence[float]
) -> np.ndarray:
    """Exact general-join sizes (Definition 5, §B.2.2) for a threshold grid.

    Every pair ``(u, v)`` with ``u ∈ left`` and ``v ∈ right`` is counted;
    there is no distinctness constraint because the collections are
    different relations.
    """
    if left.dimension != right.dimension:
        raise ValidationError("collections must share a dimension for a join")
    return _count_at_least(_block_pairs(left, right), thresholds)


def exact_general_join_size(
    left: VectorCollection, right: VectorCollection, threshold: float
) -> int:
    """Exact join size between two collections for a single threshold."""
    return int(exact_general_join_sizes(left, right, [threshold])[0])


__all__ = [
    "exact_join_size",
    "exact_join_sizes",
    "exact_general_join_size",
    "exact_general_join_sizes",
]
