"""Non-self joins: the general VSJ problem (Definition 5, §B.2.2).

For a join between two collections ``U`` and ``V`` the same hash
functions ``g`` build two tables ``D_g`` (on ``U``) and ``E_g`` (on ``V``).
A pair ``(u, v)`` belongs to stratum H when the two buckets share the same
``g`` value; the number of such pairs is ``N_H = Σ_j b_j · c_j`` over
matching buckets.  SampleH draws a matching bucket pair weighted by
``b_j · c_j`` and one vector from each side; SampleL draws uniform cross
pairs and rejects colliding ones through the shared
:func:`repro.lsh.table.sample_rejected_pairs`.  Everything else —
adaptive sampling, the safe lower bound, dampening — is shared with the
self-join estimator.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.base import Estimate, SimilarityJoinSizeEstimator
from repro.core.lsh_ss import Dampening, LSHSSParameters, estimate_strata
from repro.errors import ValidationError
from repro.lsh.families import LSHFamily
from repro.lsh.signatures import signature_keys
from repro.lsh.table import draw_stratum_pairs, sample_rejected_pairs
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection
from repro.vectors.similarity import cosine_pairs


class PairedLSHTable:
    """Two LSH tables over different collections sharing the same ``g``.

    Parameters
    ----------
    family:
        The hash-function family instance (its random functions are shared
        by both sides, which is what makes bucket keys comparable).
    left, right:
        The two vector collections ``U`` and ``V``.
    """

    def __init__(self, family: LSHFamily, left: VectorCollection, right: VectorCollection) -> None:
        if left.dimension != right.dimension:
            raise ValidationError("both collections must share a dimension")
        self.family = family
        self.left = left
        self.right = right
        left_signatures = family.hash_collection(left)
        right_signatures = family.hash_collection(right)
        self._left_keys = signature_keys(left_signatures)
        self._right_keys = signature_keys(right_signatures)
        self._build_buckets()

    def _build_buckets(self) -> None:
        left_groups: Dict[bytes, list] = {}
        for vector_id, key in enumerate(self._left_keys):
            left_groups.setdefault(key, []).append(vector_id)
        right_groups: Dict[bytes, list] = {}
        for vector_id, key in enumerate(self._right_keys):
            right_groups.setdefault(key, []).append(vector_id)
        self._left_groups = {key: np.asarray(ids, dtype=np.int64) for key, ids in left_groups.items()}
        self._right_groups = {key: np.asarray(ids, dtype=np.int64) for key, ids in right_groups.items()}
        matched = sorted(set(self._left_groups) & set(self._right_groups))
        self._matched_keys = matched
        self._matched_left = [self._left_groups[key] for key in matched]
        self._matched_right = [self._right_groups[key] for key in matched]
        weights = np.asarray(
            [left.size * right.size for left, right in zip(self._matched_left, self._matched_right)],
            dtype=np.float64,
        )
        self._matched_weights = weights
        self._num_collision_pairs = int(weights.sum())
        self._left_key_index = {key: index for index, key in enumerate(matched)}

    # ------------------------------------------------------------------
    @property
    def num_hashes(self) -> int:
        return self.family.num_hashes

    @property
    def total_pairs(self) -> int:
        """``M = |U| · |V|``."""
        return self.left.size * self.right.size

    @property
    def num_collision_pairs(self) -> int:
        """``N_H = Σ b_j · c_j`` over matching buckets."""
        return self._num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        return self.total_pairs - self._num_collision_pairs

    def same_bucket(self, left_id: int, right_id: int) -> bool:
        """True iff ``g(u) = g(v)`` for ``u`` from the left and ``v`` from the right."""
        return self._left_keys[left_id] == self._right_keys[right_id]

    def same_bucket_many(self, left_ids: np.ndarray, right_ids: np.ndarray) -> np.ndarray:
        return np.asarray(
            [
                self._left_keys[int(left_id)] == self._right_keys[int(right_id)]
                for left_id, right_id in zip(left_ids, right_ids)
            ],
            dtype=bool,
        )

    # ------------------------------------------------------------------
    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from stratum H (matching-bucket cross products)."""

        def draw(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
            probabilities = self._matched_weights / self._matched_weights.sum()
            chosen = rng.choice(len(self._matched_keys), size=size, p=probabilities)
            left_ids = np.empty(size, dtype=np.int64)
            right_ids = np.empty(size, dtype=np.int64)
            for position, bucket in enumerate(chosen):
                left_members = self._matched_left[bucket]
                right_members = self._matched_right[bucket]
                left_ids[position] = left_members[rng.integers(0, left_members.size)]
                right_ids[position] = right_members[rng.integers(0, right_members.size)]
            return left_ids, right_ids

        return draw_stratum_pairs(sample_size, self._num_collision_pairs, "H", draw, random_state)

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Uniform pairs from stratum L (cross pairs not sharing a bucket key)."""
        return sample_rejected_pairs(
            sample_size, self.num_non_collision_pairs,
            lambda batch, rng: (
                rng.integers(0, self.left.size, size=batch),
                rng.integers(0, self.right.size, size=batch),
            ),
            self.same_bucket_many, random_state, max_attempts=max_attempts,
        )


class GeneralRandomPairSampling(SimilarityJoinSizeEstimator):
    """RS(pop) for a join between two collections: uniform cross pairs."""

    name = "RS(pop)-general"

    def __init__(
        self,
        left: VectorCollection,
        right: VectorCollection,
        *,
        sample_size: Optional[int] = None,
    ) -> None:
        if left.dimension != right.dimension:
            raise ValidationError("both collections must share a dimension")
        if sample_size is not None and sample_size < 1:
            raise ValidationError(f"sample_size must be >= 1, got {sample_size}")
        self.left = left
        self.right = right
        default = max(1, int(round(1.5 * max(left.size, right.size))))
        self.sample_size = sample_size or default

    @property
    def total_pairs(self) -> int:
        return self.left.size * self.right.size

    def _estimate(self, threshold: float, *, random_state: RandomState = None) -> Estimate:
        rng = ensure_rng(random_state)
        left_ids = rng.integers(0, self.left.size, size=self.sample_size)
        right_ids = rng.integers(0, self.right.size, size=self.sample_size)
        similarities = cosine_pairs(self.left, left_ids, right_ids, other=self.right)
        true_in_sample = int(np.count_nonzero(similarities >= threshold))
        value = true_in_sample * (self.total_pairs / self.sample_size)
        return Estimate(
            value=value,
            estimator=self.name,
            threshold=threshold,
            details={"sample_size": self.sample_size, "true_in_sample": true_in_sample},
        )


class GeneralLSHSSEstimator(SimilarityJoinSizeEstimator):
    """LSH-SS for the general (non-self) VSJ problem (§B.2.2).

    Parameters mirror :class:`repro.core.lsh_ss.LSHSSEstimator`; sample
    sizes default to ``max(|U|, |V|)`` pairs per stratum.

    ``details`` keys: as for LSH-SS.
    """

    name = "LSH-SS-general"

    def __init__(
        self,
        paired_table: PairedLSHTable,
        *,
        sample_size_h: Optional[int] = None,
        sample_size_l: Optional[int] = None,
        answer_threshold: Optional[int] = None,
        dampening: Dampening = None,
    ) -> None:
        self.paired_table = paired_table
        self._params = LSHSSParameters(sample_size_h, sample_size_l, answer_threshold, dampening)
        self._num_vectors = max(paired_table.left.size, paired_table.right.size)
        self.sample_size_h, self.sample_size_l, self.answer_threshold = self._params.resolve(
            self._num_vectors
        )
        self.dampening = dampening
        if dampening is not None:
            self.name = "LSH-SS(D)-general"

    @property
    def total_pairs(self) -> int:
        return self.paired_table.total_pairs

    def _similarities(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return cosine_pairs(
            self.paired_table.left, left, right, other=self.paired_table.right
        )

    def _estimate(self, threshold: float, *, random_state: RandomState = None) -> Estimate:
        value, details = estimate_strata(
            self._params,
            self._num_vectors,
            threshold,
            ensure_rng(random_state),
            self._similarities,
            num_h=self.paired_table.num_collision_pairs,
            source_h=lambda size, generator: self.paired_table.sample_collision_pairs(
                size, random_state=generator
            ),
            num_l=self.paired_table.num_non_collision_pairs,
            source_l=lambda size, generator: self.paired_table.sample_non_collision_pairs(
                size, random_state=generator
            ),
        )
        details["num_collision_pairs"] = self.paired_table.num_collision_pairs
        return Estimate(value=value, estimator=self.name, threshold=threshold, details=details)


__all__ = ["PairedLSHTable", "GeneralRandomPairSampling", "GeneralLSHSSEstimator"]
