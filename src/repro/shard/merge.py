"""The sharded LSH-SS estimator and its merged strata.

The LSH-SS decomposition survives sharding because the strata are
additive over the bucket-key partition:

* ``N_H = Σ_s N_H^{(s)}`` — a bucket lives wholly inside one shard, and
  the facade counts each shard's share as its table changes;
* every cross-shard pair has differing signatures, hence lies in
  stratum L: ``N_L = C(n, 2) − N_H``, with the intra-shard share
  ``Σ_s (C(n_s, 2) − N_H^{(s)})`` and the rest cross-shard.

:class:`ShardedStreamingEstimator` reports the per-shard shares from the
facade's counters (``O(S)``; no shard is asked).  It is the
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
from typing import TYPE_CHECKING, Any, Mapping, Optional, cast

from repro.core.base import Estimate
from repro.obs.metrics import MetricsRegistry, get_global_registry
from repro.obs.tracing import trace
from repro.rng import RandomState
from repro.shard.sharded_index import ShardedMutableIndex
from repro.streaming.estimator import ObservedIndex, StreamingEstimator

if TYPE_CHECKING:  # the router imports this package's index; stay acyclic
    from repro.shard.router import ShardRouter


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
            index = self.index
            within_shards = sum(n * (n - 1) // 2 for n in index.shard_sizes)
            estimate.details.update(
                num_shards=index.num_shards,
                shard_sizes=list(index.shard_sizes),
                shard_collision_pairs=list(index.shard_collision_pairs),
                # pairs spanning two shards, all of them stratum L
                cross_shard_pairs=index.size * (index.size - 1) // 2 - within_shards,
            )
        self._estimate_seconds.observe(time.perf_counter() - started)
        self._estimates_total.inc()
        return estimate


__all__ = ["ShardedStreamingEstimator"]
