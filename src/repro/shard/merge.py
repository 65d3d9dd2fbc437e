"""Merged strata statistics and the sharded LSH-SS estimator.

The LSH-SS decomposition survives sharding because the strata are
additive over the bucket-key partition:

* ``N_H = Σ_s N_H^{(s)}`` — a bucket lives wholly inside one shard, and
  the facade counts each shard's share as its table changes;
* every cross-shard pair has differing signatures, hence lies in
  stratum L: ``N_L = C(n, 2) − N_H``, with the intra-shard share
  ``Σ_s (C(n_s, 2) − N_H^{(s)})`` and the rest cross-shard.

:func:`merge_strata` exposes those identities as numbers.
:class:`ShardedStreamingEstimator` is the
:class:`~repro.streaming.estimator.StreamingEstimator` kernel run over
the facade: the facade's SampleH / SampleL reproduce an unsharded
index's draws (see :mod:`repro.shard.sharded_index`), and its observer
hooks repair one pair reservoir per stratum of the *global* table.  The
modes are the streaming estimator's:

* ``mode="exact"`` — fresh draws through the facade's SampleH /
  SampleL; for the same seed the estimate is **bit-identical** to an
  unsharded :class:`~repro.streaming.estimator.StreamingEstimator` in
  exact mode over the same event sequence;
* ``mode="reservoir"`` / ``"auto"`` — the facade's reservoirs.  They
  depend on the events, the write batches and the maintenance seed, not
  on the shard count or the bucket placement, so an ``auto`` answer is the
  same for any ``S``, in process or across worker processes, and
  survives a rebalance unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional, Tuple, cast

from repro.core.base import Estimate
from repro.obs.metrics import MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.rng import RandomState
from repro.shard.sharded_index import ShardedMutableIndex
from repro.streaming.estimator import ObservedIndex, StreamingEstimator

if TYPE_CHECKING:  # the router imports this package's index; stay acyclic
    from repro.shard.router import ShardRouter


@dataclass(frozen=True)
class MergedStrata:
    """Global strata sizes with their per-shard shares."""

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
    """Assemble the additive strata identities from the facade's counters
    (``O(S)``; no shard is asked and no bucket is visited)."""
    return MergedStrata(
        size=sharded.size,
        num_collision_pairs=sharded.num_collision_pairs,
        shard_sizes=sharded.shard_sizes,
        shard_collision_pairs=sharded.shard_collision_pairs,
    )


class ShardedStreamingEstimator(StreamingEstimator):
    """LSH-SS served from a sharded index (see module docs for the modes).

    A :class:`~repro.streaming.estimator.StreamingEstimator` over the
    facade; ``options`` are its keyword parameters (sample sizes, ``δ``,
    dampening, reservoir settings and the maintenance ``random_state``),
    whose defaults track the current *global* ``n``.  ``details`` adds
    the per-shard strata (``num_shards``, ``shard_sizes``,
    ``shard_collision_pairs``, ``cross_shard_pairs``).

    ``router`` optionally attaches the cluster's
    :class:`~repro.shard.router.ShardRouter`: its buffer is flushed
    before every estimate, so writes still sitting in the write buffer
    can never be silently missing from a served estimate.
    """

    name = "LSH-SS(sharded)"
    index: ShardedMutableIndex

    def __init__(
        self,
        sharded: ShardedMutableIndex,
        *,
        router: Optional["ShardRouter"] = None,
        metrics: Optional[MetricsRegistry] = None,
        **options: Any,
    ) -> None:
        super().__init__(sharded, **options)
        self._serve_through(router, metrics)

    def _serve_through(
        self, router: Optional["ShardRouter"], metrics: Optional[MetricsRegistry]
    ) -> None:
        self.router = router
        registry = metrics if metrics is not None else get_global_registry()
        self._estimate_seconds = registry.histogram("merged_estimate_seconds")
        self._estimates_total = registry.counter("merged_estimates_total")

    @classmethod
    def from_state(
        cls,
        index: ObservedIndex,
        state: Mapping[str, object],
        *,
        router: Optional["ShardRouter"] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ShardedStreamingEstimator":
        """Reattach a checkpointed facade estimator without redrawing."""
        estimator = cast("ShardedStreamingEstimator", super().from_state(index, state))
        estimator._serve_through(router, metrics)
        return estimator

    def estimate(
        self,
        threshold: float,
        *,
        random_state: RandomState = None,
        mode: str = "auto",
    ) -> Estimate:
        """Flush the router, then estimate the join size at ``threshold``."""
        started = time.perf_counter()
        with trace("merge.estimate", mode=mode, threshold=threshold):
            if self.router is not None:
                self.router.flush()  # buffered writes must be visible to estimates
            estimate = super().estimate(threshold, random_state=random_state, mode=mode)
            strata = merge_strata(self.index)
            estimate.details.update(
                num_shards=self.index.num_shards,
                shard_sizes=list(strata.shard_sizes),
                shard_collision_pairs=list(strata.shard_collision_pairs),
                cross_shard_pairs=strata.cross_shard_pairs,
            )
        self._estimate_seconds.observe(time.perf_counter() - started)
        self._estimates_total.inc()
        return estimate


__all__ = ["MergedStrata", "merge_strata", "ShardedStreamingEstimator"]
