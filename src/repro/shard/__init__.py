"""Sharded scale-out of the streaming estimation subsystem.

The LSH-SS strata statistics are additive across disjoint bucket-key
partitions, which makes the PR-1 streaming subsystem shardable without
approximation:

* :mod:`~repro.shard.partition` — :class:`KeyPartitioner`, the one
  stable bucket-key → shard placement: highest-random-weight hashing
  over a vectorised splitmix64/FNV content hash of the signature values
  (identical from key bytes or signature matrices), so a resize moves
  only the keys whose pick changes.
* :mod:`~repro.shard.sharded_index` — :class:`ShardedMutableIndex`, one
  bucket table on the facade and ``S`` shards that hold rows only behind
  a drop-in single-index surface with the query-side merge layer built
  in.
* :mod:`~repro.shard.ops` — :class:`ShardWorker`, the op table of one
  shard (a :class:`~repro.streaming.rowstore.RowStore` and its ops): the
  one interface the facade uses, called in process or served by a
  worker process of :mod:`repro.cluster`.
* :mod:`~repro.shard.router` — :class:`ShardRouter`, the buffered write
  path: batch hashing, bucket-key partitioning, and one row slice per
  shard on top of ``insert_many``; replays
  :class:`~repro.streaming.events.ChangeLog` streams.
* :mod:`~repro.shard.merge` — :class:`ShardedStreamingEstimator`, the
  streaming estimator run over the facade, its details carrying the
  facade's per-shard ``N_H`` / ``n`` counters; the exact mode is
  bit-identical (same seed) to an unsharded estimator over the same
  event sequence, and no mode depends on the shard count.
* :mod:`~repro.shard.rebalance` — online resizes, moving the members'
  rows of the keys whose pick changes by id: :func:`plan_rebalance` /
  :func:`rebalance_cluster` resize a cluster while every estimate stays
  bit-identical.
"""

from repro.shard.merge import ShardedStreamingEstimator
from repro.shard.ops import ShardWorker
from repro.shard.partition import KeyPartitioner
from repro.shard.rebalance import KeyMove, RebalancePlan, plan_rebalance, rebalance_cluster
from repro.shard.router import PendingWrites, ShardRouter
from repro.shard.sharded_index import PreparedBatch, ShardedMutableIndex

__all__ = [
    "KeyPartitioner",
    "PendingWrites",
    "PreparedBatch",
    "ShardedMutableIndex",
    "ShardWorker",
    "ShardRouter",
    "ShardedStreamingEstimator",
    "KeyMove",
    "RebalancePlan",
    "plan_rebalance",
    "rebalance_cluster",
]
