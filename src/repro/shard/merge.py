"""Merging per-shard strata statistics and reservoirs into one estimate.

The LSH-SS decomposition survives sharding because the strata are
additive over the bucket-key partition:

* ``N_H = Σ_s N_H^{(s)}`` — a bucket lives wholly inside one shard;
* every cross-shard pair has differing signatures, hence lies in
  stratum L: ``N_L = C(n, 2) − N_H``, with the intra-shard share
  ``Σ_s (C(n_s, 2) − N_H^{(s)})`` and the rest cross-shard.

:func:`merge_strata` exposes those identities as numbers;
:class:`ShardedStreamingEstimator` hands the merged strata sizes, the
global ``n`` and one of two pair-source pairs to the Algorithm-1 kernel
:func:`repro.core.lsh_ss.estimate_strata`:

* ``mode="exact"`` — the facade's merged SampleH / SampleL primitives.
  The merged bucket layout reproduces the unsharded one (see
  :mod:`repro.shard.sharded_index`), so for the same seed the estimate
  is **bit-identical** to an unsharded
  :class:`~repro.streaming.estimator.StreamingEstimator` in exact mode
  over the same event sequence.
* ``mode="merged"`` (and ``"auto"``, its alias with per-shard repairs
  already applied by the routed mutations) — pool the per-shard
  reservoirs without touching any bucket at query time: stratum-H draws
  pick a shard with probability ``N_H^{(s)} / N_H`` and then a reservoir
  pair; stratum-L draws mix the per-shard intra-L reservoirs with
  directly sampled cross-shard pairs (shard pair ``(i, j)`` with
  probability ``n_i·n_j / N_L^{cross}``, members uniform).  Each draw is
  i.i.d. uniform over its stratum, which is all the kernel asks of a
  pair source.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.core.base import Estimate, SimilarityJoinSizeEstimator
from repro.core.lsh_ss import Dampening, LSHSSParameters, estimate_strata
from repro.errors import ValidationError
from repro.lsh.table import PairSource
from repro.obs.metrics import MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.rng import RandomState, ensure_rng
from repro.shard.sharded_index import IndexShard, ShardedMutableIndex

if TYPE_CHECKING:  # the router imports this package's index; stay acyclic
    from repro.shard.router import ShardRouter

_MODES = ("auto", "exact", "merged")


@dataclass(frozen=True)
class MergedStrata:
    """Global strata sizes reassembled from per-shard statistics."""

    size: int
    num_collision_pairs: int
    shard_sizes: Tuple[int, ...]
    shard_collision_pairs: Tuple[int, ...]

    @property
    def total_pairs(self) -> int:
        return self.size * (self.size - 1) // 2

    @property
    def num_non_collision_pairs(self) -> int:
        return self.total_pairs - self.num_collision_pairs

    @property
    def shard_intra_non_collision_pairs(self) -> Tuple[int, ...]:
        return tuple(
            n * (n - 1) // 2 - collisions
            for n, collisions in zip(self.shard_sizes, self.shard_collision_pairs)
        )

    @property
    def cross_shard_pairs(self) -> int:
        """Pairs spanning two shards — all of them stratum L."""
        return self.total_pairs - sum(n * (n - 1) // 2 for n in self.shard_sizes)


def merge_strata(sharded: ShardedMutableIndex) -> MergedStrata:
    """Assemble the additive strata identities from the live shards."""
    return MergedStrata(
        size=sharded.size,
        num_collision_pairs=sharded.num_collision_pairs,
        shard_sizes=tuple(shard.size for shard in sharded.shards),
        shard_collision_pairs=tuple(shard.num_collision_pairs for shard in sharded.shards),
    )


class ShardedStreamingEstimator(SimilarityJoinSizeEstimator):
    """LSH-SS served from a sharded index (see module docs for the modes).

    Parameters mirror :class:`~repro.streaming.estimator.StreamingEstimator`;
    the sample-size and ``δ`` defaults track the current *global* ``n``.
    ``details`` adds the per-shard strata (``shard_sizes`` /
    ``shard_collision_pairs``) and the sources used per stratum.

    ``router`` optionally attaches the cluster's
    :class:`~repro.shard.router.ShardRouter`: its buffer is flushed
    before every estimate, so inserts still sitting in the write buffer
    can never be silently missing from a served estimate.
    """

    name = "LSH-SS(sharded)"

    def __init__(
        self,
        sharded: ShardedMutableIndex,
        *,
        sample_size_h: Optional[int] = None,
        sample_size_l: Optional[int] = None,
        answer_threshold: Optional[int] = None,
        dampening: Dampening = None,
        router: Optional["ShardRouter"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._params = LSHSSParameters(sample_size_h, sample_size_l, answer_threshold, dampening)
        self.sharded = sharded
        self.router = router
        self.sample_size_h = sample_size_h
        self.sample_size_l = sample_size_l
        self.answer_threshold = answer_threshold
        self.dampening: Dampening = dampening
        registry = metrics if metrics is not None else get_global_registry()
        self._estimate_seconds = registry.histogram("merged_estimate_seconds")
        self._estimates_total = registry.counter("merged_estimates_total")

    @property
    def total_pairs(self) -> int:
        return self.sharded.total_pairs

    # ------------------------------------------------------------------
    # merged-reservoir pair sources
    # ------------------------------------------------------------------
    def _shard_draw(
        self, shard: IndexShard, stratum: str, count: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` intra-shard pairs of stratum ``"h"`` / ``"l"``: reservoir, else fresh."""
        estimator = shard.estimator
        if estimator is not None and estimator.reservoir_usable(stratum):
            left, right = estimator.reservoir_pairs(stratum)
            positions = rng.integers(0, left.size, size=count)
            return left[positions], right[positions]
        if stratum == "h":
            return shard.index.sample_collision_pairs(count, random_state=rng)
        return shard.index.sample_non_collision_pairs(count, random_state=rng)

    def _merged_source_h(self, strata: MergedStrata) -> PairSource:
        weights = np.asarray(strata.shard_collision_pairs, dtype=np.float64)

        # normalised per call: an empty stratum's source is never called
        def source(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
            picks = rng.choice(len(self.sharded.shards), size=size, p=weights / weights.sum())
            left = np.empty(size, dtype=np.int64)
            right = np.empty(size, dtype=np.int64)
            for shard_id in np.unique(picks):
                mask = picks == shard_id
                left[mask], right[mask] = self._shard_draw(
                    self.sharded.shards[int(shard_id)], "h", int(mask.sum()), rng
                )
            return left, right

        return source

    def _merged_source_l(self, strata: MergedStrata) -> PairSource:
        num_shards = len(self.sharded.shards)
        intra = np.asarray(strata.shard_intra_non_collision_pairs, dtype=np.float64)
        # component num_shards + index(i, j) = the cross-shard block (i, j)
        cross_blocks = list(combinations(range(num_shards), 2))
        cross_weights = np.asarray(
            [strata.shard_sizes[i] * strata.shard_sizes[j] for i, j in cross_blocks],
            dtype=np.float64,
        )
        weights = np.concatenate([intra, cross_weights])
        shard_ids_arrays = [shard.index.ids for shard in self.sharded.shards]

        def source(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
            picks = rng.choice(weights.size, size=size, p=weights / weights.sum())
            left = np.empty(size, dtype=np.int64)
            right = np.empty(size, dtype=np.int64)
            for component in np.unique(picks):
                mask = picks == component
                count = int(mask.sum())
                if component < num_shards:
                    left[mask], right[mask] = self._shard_draw(
                        self.sharded.shards[int(component)], "l", count, rng
                    )
                else:
                    i, j = cross_blocks[int(component) - num_shards]
                    left[mask] = shard_ids_arrays[i][
                        rng.integers(0, shard_ids_arrays[i].size, size=count)
                    ]
                    right[mask] = shard_ids_arrays[j][
                        rng.integers(0, shard_ids_arrays[j].size, size=count)
                    ]
            return left, right

        return source

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        threshold: float,
        *,
        random_state: RandomState = None,
        mode: str = "auto",
    ) -> Estimate:
        """Estimate the join size at ``threshold`` (see module docs for modes).

        Validation of ``mode`` happens here; the threshold check and the
        ``[0, M]`` clamp live in the base class.
        """
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        return super().estimate(threshold, random_state=random_state, mode=mode)

    def _estimate(
        self, threshold: float, *, random_state: RandomState = None, mode: str = "auto"
    ) -> Estimate:
        started = time.perf_counter()
        with trace("merge.estimate", mode=mode, threshold=threshold):
            if self.router is not None:
                self.router.flush()  # buffered inserts must be visible to estimates
            rng = ensure_rng(random_state)
            strata = merge_strata(self.sharded)
            num_h = strata.num_collision_pairs
            num_l = strata.num_non_collision_pairs
            if mode == "exact":
                source_h: PairSource = lambda size, generator: (  # noqa: E731
                    self.sharded.sample_collision_pairs(size, random_state=generator)
                )
                source_l: PairSource = lambda size, generator: (  # noqa: E731
                    self.sharded.sample_non_collision_pairs(size, random_state=generator)
                )
            else:
                source_h = self._merged_source_h(strata)
                source_l = self._merged_source_l(strata)
            value, details = estimate_strata(
                self._params,
                strata.size,
                threshold,
                rng,
                self.sharded.cosine_pairs,
                num_h=num_h,
                source_h=source_h,
                num_l=num_l,
                source_l=source_l,
            )
            details.update(
                n=strata.size,
                num_collision_pairs=num_h,
                num_non_collision_pairs=num_l,
                num_shards=self.sharded.num_shards,
                shard_sizes=list(strata.shard_sizes),
                shard_collision_pairs=list(strata.shard_collision_pairs),
                cross_shard_pairs=strata.cross_shard_pairs,
                mode=mode,
            )
            estimate = Estimate(
                value=value, estimator=self.name, threshold=threshold, details=details
            )
        self._estimate_seconds.observe(time.perf_counter() - started)
        self._estimates_total.inc()
        return estimate


__all__ = ["MergedStrata", "merge_strata", "ShardedStreamingEstimator"]
