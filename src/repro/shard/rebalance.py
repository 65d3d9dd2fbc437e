"""Online shard rebalancing: resize a cluster by moving bucket rows.

A :class:`~repro.shard.sharded_index.ShardedMutableIndex` places every
*bucket key* on its :class:`~repro.shard.partition.KeyPartitioner` pick.
Resizing the cluster to ``S'`` shards therefore reduces to moving the
keys whose pick changes — the rows of their members — between shards.
This module does that **online**, without rebuilding the cluster from
the raw vectors:

* :func:`plan_rebalance` diffs every live key's pick under ``S`` and
  ``S'`` shards in one vectorised pass over the facade's bucket table
  (no shard is asked, so a dry run touches none) and returns a
  :class:`RebalancePlan` of :class:`KeyMove` entries.  Highest-random-
  weight placement moves an expected ``1/(S+1)`` of the keys on a grow
  to ``S+1`` and only the departing shards' keys on a shrink.
* :func:`rebalance_cluster` executes it: grow the shard list, gather the
  moved buckets' rows from their source shards, then add them to the
  target shards and remove them from the sources — one ``write``
  request per affected shard, fanned out to the workers on the process
  shape — adopt
  the new partitioner and drop the trailing shards of a shrink.  The
  facade changes only the id → shard map and the per-shard counters: its
  bucket order, live-id order and reservoirs stay as they were, so the
  merged SampleH layout (and with it every exact-mode and ``auto``
  estimate) is bit-identical across the migration, and nothing needs
  repairing afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.lsh.signatures import key_signature_matrix
from repro.shard.partition import KeyPartitioner, signature_shard_hash
from repro.shard.sharded_index import ShardedMutableIndex


@dataclass(frozen=True)
class KeyMove:
    """One bucket key relocating from shard ``source`` to shard ``target``."""

    key: bytes
    source: int
    target: int


@dataclass
class RebalancePlan:
    """The key moves of a resize to ``num_shards`` shards."""

    moves: List[KeyMove]
    total_keys: int
    num_shards: int
    #: vectors actually relocated; filled in by :func:`rebalance_cluster`
    moved_vectors: int = field(default=0, compare=False)

    @property
    def moved_keys(self) -> int:
        return len(self.moves)

    @property
    def moved_fraction(self) -> float:
        """Fraction of live bucket keys the plan relocates."""
        return len(self.moves) / self.total_keys if self.total_keys else 0.0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RebalancePlan(moves={len(self.moves)}, total_keys={self.total_keys}, "
            f"fraction={self.moved_fraction:.4f}, num_shards={self.num_shards})"
        )


def plan_rebalance(sharded: ShardedMutableIndex, num_shards: int) -> RebalancePlan:
    """The live keys whose pick changes when the cluster holds ``num_shards``."""
    target = KeyPartitioner(num_shards)
    keys = sharded.primary_table.bucket_keys()
    hashes = signature_shard_hash(key_signature_matrix(keys, sharded.num_hashes))
    sources = sharded.partitioner.shard_of_hashes(hashes)
    targets = target.shard_of_hashes(hashes)
    moves = [
        KeyMove(keys[position], int(sources[position]), int(targets[position]))
        for position in np.flatnonzero(sources != targets)
    ]
    return RebalancePlan(moves=moves, total_keys=len(keys), num_shards=target.num_shards)


def rebalance_cluster(sharded: ShardedMutableIndex, num_shards: int) -> RebalancePlan:
    """Resize a live cluster to ``num_shards`` shards with minimal key movement.

    Growing appends empty shards before the migration; shrinking drops
    the trailing shards once every key has left them.  Rows are looked
    up by id on both sides, so the migration is exactly as lossless as a
    gather.  A failed row write marks the cluster broken.  Returns the
    executed :class:`RebalancePlan`.
    """
    plan = plan_rebalance(sharded, num_shards)
    if plan.num_shards > sharded.num_shards:
        sharded.add_shards(plan.num_shards)
    if plan.moves:
        table = sharded.primary_table
        buckets = [table.bucket_members_by_key(move.key) for move in plan.moves]
        counts = np.fromiter((len(members) for members in buckets), np.int64, len(buckets))
        ids = np.concatenate([np.asarray(members, dtype=np.int64) for members in buckets])
        sources = np.repeat([move.source for move in plan.moves], counts)
        targets = np.repeat([move.target for move in plan.moves], counts)
        rows = sharded._stack_raw(ids)  # one gather per source shard
        requests = []
        for shard_id in np.union1d(sources, targets).tolist():
            arriving = np.flatnonzero(targets == shard_id)
            csr = rows[arriving] if arriving.size else None
            requests.append((shard_id, ids[arriving], csr, ids[sources == shard_id]))
        sizes = sharded._write_rows(requests)
        for move, count in zip(plan.moves, counts.tolist()):
            pairs = count * (count - 1) // 2
            sharded._shard_sizes[move.source] -= count
            sharded._shard_sizes[move.target] += count
            sharded._shard_collision_pairs[move.source] -= pairs
            sharded._shard_collision_pairs[move.target] += pairs
        sharded._place(ids, targets)
        sharded._check_sizes([request[0] for request in requests], sizes)
        plan.moved_vectors = int(ids.size)
    sharded.partitioner = KeyPartitioner(plan.num_shards)
    if plan.num_shards < sharded.num_shards:
        sharded.drop_trailing_shards(plan.num_shards)
    return plan


__all__ = [
    "KeyMove",
    "RebalancePlan",
    "plan_rebalance",
    "rebalance_cluster",
]
