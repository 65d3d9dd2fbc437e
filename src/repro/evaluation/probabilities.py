"""Empirical stratum probabilities: Tables 1 and 2 of the paper.

Given an LSH table and the exact join oracle, this module computes the
probabilities the paper tabulates to motivate stratified sampling:

* ``P(T)`` — probability a random pair is a true pair (``J / M``),
* ``P(T|H)`` = α — probability a co-bucket pair is true,
* ``P(H|T)`` — probability a true pair shares a bucket,
* ``P(T|L)`` = β — probability a non-co-bucket pair is true,

plus the theoretical regime boundaries ``log n / n`` and ``1 / n`` used by
the analysis in §5.2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.join.exact import SIMILARITY_TOLERANCE
from repro.join.histogram import SimilarityHistogram
from repro.lsh.table import LSHTable
from repro.vectors.similarity import cosine_pairs


@dataclass(frozen=True)
class StratumProbabilities:
    """The probabilities of Table 1 for one threshold."""

    threshold: float
    probability_true: float  #: P(T) = J / M
    probability_true_given_h: float  #: α = P(T|H)
    probability_h_given_true: float  #: P(H|T)
    probability_true_given_l: float  #: β = P(T|L)
    join_size: int
    num_collision_pairs: int
    true_collision_pairs: int

    def as_dict(self) -> Dict[str, float]:
        return {
            "tau": self.threshold,
            "P(T)": self.probability_true,
            "P(T|H)": self.probability_true_given_h,
            "P(H|T)": self.probability_h_given_true,
            "P(T|L)": self.probability_true_given_l,
            "J": float(self.join_size),
            "N_H": float(self.num_collision_pairs),
            "J_H": float(self.true_collision_pairs),
        }


def _collision_pair_similarities(table: LSHTable) -> np.ndarray:
    """Similarities of every pair that shares a bucket (exact, |SH| values)."""
    left, right = table.collision_pairs_arrays()
    if not left.size:
        return np.zeros(0, dtype=np.float64)
    return cosine_pairs(table.collection, left, right)


def empirical_stratum_probabilities(
    table: LSHTable,
    thresholds: Sequence[float],
    *,
    histogram: Optional[SimilarityHistogram] = None,
) -> List[StratumProbabilities]:
    """Compute Table 1 exactly for a threshold grid.

    Parameters
    ----------
    table:
        The extended LSH table.
    thresholds:
        Similarity thresholds (each in ``(0, 1]``).
    histogram:
        Optional pre-computed exact similarity histogram (reused across
        many calls in the benchmarks); built on demand otherwise.
    """
    for threshold in thresholds:
        if not 0.0 < threshold <= 1.0:
            raise ValidationError(f"thresholds must be in (0, 1], got {threshold}")
    if histogram is None:
        histogram = SimilarityHistogram(table.collection)
    collision_similarities = _collision_pair_similarities(table)
    total_pairs = table.total_pairs
    num_collision_pairs = table.num_collision_pairs
    num_non_collision_pairs = table.num_non_collision_pairs

    results: List[StratumProbabilities] = []
    for threshold in thresholds:
        join_size = histogram.join_size(float(threshold))
        true_collision = int(
            np.count_nonzero(collision_similarities >= threshold - SIMILARITY_TOLERANCE)
        )
        true_non_collision = max(join_size - true_collision, 0)
        probability_true = join_size / total_pairs if total_pairs else 0.0
        alpha = true_collision / num_collision_pairs if num_collision_pairs else 0.0
        h_given_t = true_collision / join_size if join_size else 0.0
        beta = (
            true_non_collision / num_non_collision_pairs if num_non_collision_pairs else 0.0
        )
        results.append(
            StratumProbabilities(
                threshold=float(threshold),
                probability_true=probability_true,
                probability_true_given_h=alpha,
                probability_h_given_true=h_given_t,
                probability_true_given_l=beta,
                join_size=int(join_size),
                num_collision_pairs=int(num_collision_pairs),
                true_collision_pairs=true_collision,
            )
        )
    return results


def regime_boundaries(num_vectors: int) -> Dict[str, float]:
    """The α/β boundaries of §5.2: ``log n / n`` (high/low-threshold α and
    low-threshold β) and ``1 / n`` (high-threshold β)."""
    if num_vectors < 2:
        raise ValidationError("num_vectors must be >= 2")
    return {
        "alpha_threshold": math.log2(num_vectors) / num_vectors,
        "beta_high_threshold": 1.0 / num_vectors,
        "beta_low_threshold": math.log2(num_vectors) / num_vectors,
    }


def alpha_beta_table(
    table: LSHTable,
    thresholds: Sequence[float],
    *,
    histogram: Optional[SimilarityHistogram] = None,
) -> Dict[str, object]:
    """Table 2: α and β per threshold plus the theoretical regime boundaries."""
    probabilities = empirical_stratum_probabilities(table, thresholds, histogram=histogram)
    boundaries = regime_boundaries(table.num_vectors)
    rows = [
        {
            "tau": item.threshold,
            "alpha": item.probability_true_given_h,
            "beta": item.probability_true_given_l,
        }
        for item in probabilities
    ]
    return {"rows": rows, "boundaries": boundaries}


__all__ = [
    "StratumProbabilities",
    "empirical_stratum_probabilities",
    "alpha_beta_table",
    "regime_boundaries",
]
