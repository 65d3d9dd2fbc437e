"""J_U — the closed-form estimator under the uniformity assumption (§4.2).

Given the extended LSH table (bucket counts → ``N_H``) and the LSH
function analysis of Figure 1, Eq. (4) yields a join-size estimate with
*no sampling at all*:

    Ĵ_U = ((k + 1)·N_H − τ^k·M) / Σ_{i=0}^{k−1} τ^i

The estimator implicitly assumes pair similarities are uniform on
``[0, 1]``, which real data violates badly (§4.2) — it is included as the
stepping stone to LSH-S and as a baseline for tests.
"""

from __future__ import annotations

from repro.core.analysis import CollisionModel, transform_threshold, uniformity_estimate
from repro.core.base import Estimate, SimilarityJoinSizeEstimator
from repro.lsh.table import LSHTable
from repro.rng import RandomState


class UniformityEstimator(SimilarityJoinSizeEstimator):
    """The J_U estimator of Eq. (4).

    Parameters
    ----------
    table:
        The extended LSH table (provides ``N_H``, ``M`` and ``k``).
    collision_model:
        ``"angular"`` (default) converts cosine thresholds into the
        sign-random-projection collision probability before applying the
        closed form; ``"ideal"`` uses the threshold as-is, as if
        Definition 3 held for cosine itself (the collision-model ablation).

    ``details`` keys: ``num_collision_pairs``, ``transformed_threshold``.
    """

    name = "J_U"

    def __init__(self, table: LSHTable, *, collision_model: CollisionModel = "angular") -> None:
        self.table = table
        self.collision_model = collision_model

    @property
    def total_pairs(self) -> int:
        return self.table.total_pairs

    def _estimate(self, threshold: float, *, random_state: RandomState = None) -> Estimate:
        transformed = transform_threshold(threshold, self.collision_model)
        value = uniformity_estimate(
            self.table.num_collision_pairs,
            self.table.total_pairs,
            transformed,
            self.table.num_hashes,
        )
        return Estimate(
            value=value,
            estimator=self.name,
            threshold=threshold,
            details={
                "num_collision_pairs": self.table.num_collision_pairs,
                "transformed_threshold": transformed,
            },
        )


__all__ = ["UniformityEstimator"]
