"""Multi-table extensions: median and virtual-bucket estimators (§B.2.1).

A production LSH index keeps ``ℓ > 1`` tables.  Two ways to use them:

* **Median estimator** — run a single-table estimator on each table
  independently and report the median estimate.  By the standard Chernoff
  argument, the probability that the median deviates by more than the
  single-table error bound drops to ``2^{−ℓ/2}``.
* **Virtual-bucket estimator** — declare a pair "in the same bucket" if
  it collides in *any* of the ``ℓ`` tables.  This enlarges stratum H,
  which helps when the pre-built index uses a larger ``k`` than the
  estimation problem would like.
"""

from __future__ import annotations

import statistics
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.base import Estimate, SimilarityJoinSizeEstimator
from repro.core.lsh_ss import Dampening, LSHSSParameters, estimate_strata
from repro.errors import ValidationError
from repro.lsh.index import LSHIndex
from repro.lsh.table import (
    LSHTable, draw_stratum_pairs, sample_rejected_pairs, sample_uniform_pairs,
)
from repro.rng import RandomState, ensure_rng, spawn
from repro.vectors.similarity import cosine_pairs

EstimatorFactory = Callable[[LSHTable], SimilarityJoinSizeEstimator]


class MedianEstimator(SimilarityJoinSizeEstimator):
    """Median of per-table estimates (§B.2.1, "median estimator").

    Parameters
    ----------
    index:
        LSH index with ``ℓ ≥ 1`` tables.
    estimator_factory:
        Callable building a single-table estimator from an
        :class:`~repro.lsh.table.LSHTable`; e.g.
        ``lambda table: LSHSSEstimator(table)``.

    ``details`` keys: ``per_table_estimates``.
    """

    name = "LSH-SS(median)"

    def __init__(self, index: LSHIndex, estimator_factory: EstimatorFactory, *, name: Optional[str] = None) -> None:
        self.index = index
        self.estimators: List[SimilarityJoinSizeEstimator] = [
            estimator_factory(table) for table in index.tables
        ]
        if not self.estimators:
            raise ValidationError("the LSH index must contain at least one table")
        if name is not None:
            self.name = name

    @property
    def total_pairs(self) -> int:
        return self.index.collection.total_pairs

    def _estimate(self, threshold: float, *, random_state: RandomState = None) -> Estimate:
        rng = ensure_rng(random_state)
        child_rngs = spawn(rng, len(self.estimators))
        values = [
            estimator.estimate(threshold, random_state=child).value
            for estimator, child in zip(self.estimators, child_rngs)
        ]
        return Estimate(
            value=float(statistics.median(values)),
            estimator=self.name,
            threshold=threshold,
            details={"per_table_estimates": values},
        )


class VirtualBucketEstimator(SimilarityJoinSizeEstimator):
    """Stratified sampling over virtual buckets formed by ``ℓ`` tables.

    A pair belongs to the virtual stratum H when it collides in at least
    one of the index's tables.  The virtual stratum is enumerated once at
    construction (its size is bounded by ``Σ_i N_H(table_i)``), so SampleH
    becomes uniform sampling from an explicit pair list and SampleL
    rejects pairs colliding in any table.

    Parameters mirror :class:`repro.core.lsh_ss.LSHSSEstimator`.

    ``details`` keys: as for LSH-SS plus ``num_virtual_collision_pairs``.
    """

    name = "LSH-SS(virtual)"

    def __init__(
        self,
        index: LSHIndex,
        *,
        sample_size_h: Optional[int] = None,
        sample_size_l: Optional[int] = None,
        answer_threshold: Optional[int] = None,
        dampening: Dampening = None,
        max_virtual_pairs: int = 5_000_000,
    ) -> None:
        self.index = index
        self.collection = index.collection
        self._params = LSHSSParameters(sample_size_h, sample_size_l, answer_threshold, dampening)
        self.sample_size_h, self.sample_size_l, self.answer_threshold = self._params.resolve(
            self.collection.size
        )
        self.dampening = dampening
        left, right = index.virtual_collision_pairs(max_pairs=max_virtual_pairs)
        self._virtual_left = left
        self._virtual_right = right

    @property
    def total_pairs(self) -> int:
        return self.collection.total_pairs

    @property
    def num_virtual_collision_pairs(self) -> int:
        """Size of the virtual stratum H."""
        return int(self._virtual_left.size)

    # ------------------------------------------------------------------
    def _similarities(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return cosine_pairs(self.collection, left, right)

    def _sample_virtual_h(
        self, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        def draw(count: int, generator: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
            positions = generator.integers(0, self._virtual_left.size, size=count)
            return self._virtual_left[positions], self._virtual_right[positions]

        return draw_stratum_pairs(size, self.num_virtual_collision_pairs, "H", draw, rng)

    def _sample_virtual_l(
        self, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        # the virtual stratum H is a vanishing fraction of all pairs, so
        # the rejection rate is near 0
        return sample_rejected_pairs(
            size, self.collection.total_pairs - self.num_virtual_collision_pairs,
            lambda batch, generator: sample_uniform_pairs(self.collection.size, batch, generator),
            self.index.same_bucket_any_many, rng,
        )

    def _estimate(self, threshold: float, *, random_state: RandomState = None) -> Estimate:
        num_virtual = self.num_virtual_collision_pairs
        value, details = estimate_strata(
            self._params,
            self.collection.size,
            threshold,
            ensure_rng(random_state),
            self._similarities,
            num_h=num_virtual,
            source_h=self._sample_virtual_h,
            num_l=self.collection.total_pairs - num_virtual,
            source_l=self._sample_virtual_l,
        )
        details["num_virtual_collision_pairs"] = num_virtual
        return Estimate(value=value, estimator=self.name, threshold=threshold, details=details)


__all__ = ["MedianEstimator", "VirtualBucketEstimator", "EstimatorFactory"]
