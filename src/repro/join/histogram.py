"""One-pass similarity histogram over all pairs of a collection.

Several experiments (Table 1, Table 2, the join-size/selectivity table,
and every accuracy figure) need the exact join size at many thresholds
plus the per-stratum probabilities.  Recomputing the exact join for
every threshold would repeat the dominant cost, so this module makes a
single pass over the exact oracle's pairs (:mod:`repro.join.exact`) and
bins every positive pair similarity into a fine histogram; afterwards
``J(τ)`` for any ``τ`` on the bin grid is a suffix sum, and the total
number of pairs below the first bin is recovered from ``M``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ValidationError
from repro.join.exact import SIMILARITY_TOLERANCE, _block_pairs
from repro.vectors.collection import VectorCollection


class SimilarityHistogram:
    """Histogram of all pairwise cosine similarities of a collection.

    Parameters
    ----------
    collection:
        The vector collection (self-join semantics: unordered pairs,
        ``u ≠ v``).
    num_bins:
        Number of equal-width bins spanning ``(0, 1]``.  Thresholds used
        with :meth:`join_size` should be multiples of ``1 / num_bins`` to
        be exact; other thresholds are answered conservatively by the
        nearest bin edge above.
    """

    def __init__(self, collection: VectorCollection, *, num_bins: int = 1000):
        if num_bins < 1:
            raise ValidationError(f"num_bins must be >= 1, got {num_bins}")
        self.collection = collection
        self.num_bins = int(num_bins)
        self._edges = np.linspace(0.0, 1.0, self.num_bins + 1)
        self._counts = self._build()

    def _build(self) -> np.ndarray:
        counts = np.zeros(self.num_bins, dtype=np.int64)
        for _, _, similarity in _block_pairs(self.collection):
            positive = similarity[similarity > 0.0]
            # Left-closed bins [edges[b], edges[b+1}); the tolerance shift
            # counts a pair a round-off below a bin edge as on the edge.
            bins = np.floor((positive + SIMILARITY_TOLERANCE) * self.num_bins).astype(np.int64)
            counts += np.bincount(np.minimum(bins, self.num_bins - 1), minlength=self.num_bins)
        return counts

    # ------------------------------------------------------------------
    @property
    def bin_edges(self) -> np.ndarray:
        """Bin edges, shape ``(num_bins + 1,)``."""
        return self._edges

    @property
    def bin_counts(self) -> np.ndarray:
        """Number of pairs whose similarity falls into each bin."""
        return self._counts

    @property
    def total_pairs(self) -> int:
        """``M`` — all unordered distinct pairs, including zero-similarity ones."""
        return self.collection.total_pairs

    @property
    def positive_pairs(self) -> int:
        """Number of pairs with strictly positive similarity."""
        return int(self._counts.sum())

    def join_size(self, threshold: float) -> int:
        """Number of pairs with similarity ``≥ threshold`` (``threshold > 0``).

        Exact when ``threshold`` coincides with a bin edge; otherwise the
        count of the containing bin is attributed entirely above the
        threshold, i.e. the answer is an upper bound that is off by at
        most one bin's worth of pairs.
        """
        if not 0.0 < threshold <= 1.0:
            raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
        scaled = threshold * self.num_bins
        nearest_edge = round(scaled)
        if abs(scaled - nearest_edge) < 1e-9:
            first_bin = int(nearest_edge)
        else:
            first_bin = int(np.floor(scaled))
        first_bin = min(max(first_bin, 0), self.num_bins - 1)
        return int(self._counts[first_bin:].sum())

    def join_sizes(self, thresholds: Sequence[float]) -> np.ndarray:
        """Vectorised :meth:`join_size` over a grid of thresholds."""
        return np.asarray([self.join_size(float(t)) for t in thresholds], dtype=np.int64)

    def selectivity(self, threshold: float) -> float:
        """``J(τ) / M`` — the join selectivity the paper tabulates in §6.2."""
        return self.join_size(threshold) / self.total_pairs

    def moment(self, order: int) -> float:
        """Approximate ``Σ_pairs s^order`` using bin mid-points.

        Used by tests of the Lattice-Counting adaptation: the prefix
        collision counts of an ideal LSH family concentrate around these
        moments.
        """
        if order < 0:
            raise ValidationError("order must be non-negative")
        midpoints = (self._edges[:-1] + self._edges[1:]) / 2.0
        return float(np.sum(self._counts * midpoints**order))


__all__ = ["SimilarityHistogram"]
