"""Online shard rebalancing: bucket-key migration between row stores.

A :class:`~repro.shard.sharded_index.ShardedMutableIndex` assigns every
*bucket key* to one shard.  Growing, shrinking, or re-partitioning the
cluster therefore reduces to moving sets of bucket keys — the rows of
their members — between shards.  This module does that **online**,
without rebuilding the cluster from the raw vectors:

* :func:`plan_rebalance` diffs the facade's live bucket owners against
  a target partitioner in one vectorised pass and returns a
  :class:`RebalancePlan` of :class:`KeyMove` entries.
* :func:`apply_plan` executes a plan.  The facade's bucket table names
  the members of every moved key; their raw rows are gathered from the
  source shards, added to the target shards and removed from the
  sources — one request per affected shard and step, fanned out to the
  workers on the process shape.  The facade then changes only the
  bucket *owners*, the id → shard map and the per-shard counters: its
  bucket order, live-id order and reservoirs stay as they were, so the
  merged SampleH layout (and with it every exact-mode and ``auto``
  estimate) is bit-identical across the migration, and nothing needs
  repairing afterwards.
* :func:`rebalance_cluster` is the driver: grow/shrink the shard list, swap the
  partitioner (a :class:`~repro.shard.partition.RendezvousPartitioner`
  moves only ``~1/(S+1)`` of the keys on a resize to ``S+1``), plan,
  and apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.shard.partition import (
    Partitioner,
    key_signature_matrix,
    resolve_partitioner,
)
from repro.shard.sharded_index import ShardedMutableIndex


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KeyMove:
    """One bucket key relocating from shard ``source`` to shard ``target``."""

    key: bytes
    source: int
    target: int


@dataclass
class RebalancePlan:
    """A set of key moves, optionally tied to a new target partitioner.

    ``partitioner`` is the assignment the cluster adopts once the moves
    are applied (``None`` for a manual key-range migration that keeps
    the current partitioner — the facade routes by live bucket owner,
    so manual placements stay consistent).
    """

    moves: List[KeyMove]
    total_keys: int
    partitioner: Optional[Partitioner] = None
    #: vectors actually relocated; filled in by :func:`apply_plan`
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
            f"fraction={self.moved_fraction:.4f}, partitioner={self.partitioner!r})"
        )


def plan_rebalance(sharded: ShardedMutableIndex, partitioner: Partitioner) -> RebalancePlan:
    """Diff live bucket owners against ``partitioner`` in one vectorised pass."""
    if partitioner.num_shards > sharded.num_shards:
        raise ValidationError(
            f"target partitioner covers {partitioner.num_shards} shards but the "
            f"cluster has {sharded.num_shards}; grow it first (add_shards)"
        )
    owner_of_key = sharded._owner_of_key
    keys = list(owner_of_key.keys())
    plan_moves: List[KeyMove] = []
    if keys:
        signatures = key_signature_matrix(keys, sharded.num_hashes)
        targets = partitioner.shard_of_signatures(signatures)
        owners = np.fromiter(owner_of_key.values(), dtype=np.int64, count=len(keys))
        for position in np.flatnonzero(owners != targets):
            plan_moves.append(
                KeyMove(keys[position], int(owners[position]), int(targets[position]))
            )
    return RebalancePlan(moves=plan_moves, total_keys=len(keys), partitioner=partitioner)


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def apply_plan(sharded: ShardedMutableIndex, plan: RebalancePlan) -> RebalancePlan:
    """Execute a rebalance plan: migrate the moved buckets' rows, remap owners.

    Rows are looked up by id on both sides, so the migration is exactly
    as lossless as a gather.  Facade-level state (live-id order, the
    global bucket table behind SampleH / SampleL, the facade estimators'
    reservoirs) is untouched apart from the bucket owners, which keeps
    every estimate bit-identical across the migration.  On the process
    shape a failure after the first row insert marks the cluster broken.
    """
    owner_of_key = sharded._owner_of_key
    num_shards = sharded.num_shards
    for move in plan.moves:
        owner = owner_of_key.get(move.key)
        if owner is None:
            raise ValidationError("plan moves a bucket key that is not live")
        if owner != move.source:
            raise ValidationError(
                f"plan expects a bucket on shard {move.source} but it lives on "
                f"shard {owner}"
            )
        if not 0 <= move.target < num_shards:
            raise ValidationError(
                f"plan targets shard {move.target} of a {num_shards}-shard cluster"
            )
        if move.target == move.source:
            raise ValidationError("plan moves a bucket key onto its current shard")
    if len({move.key for move in plan.moves}) != len(plan.moves):
        raise ValidationError("plan moves a bucket key twice")
    if plan.moves:
        buckets = [sharded._table.bucket_members_by_key(move.key) for move in plan.moves]
        counts = [len(members) for members in buckets]
        ids = np.concatenate([np.asarray(members, dtype=np.int64) for members in buckets])
        sources = np.repeat([move.source for move in plan.moves], counts)
        targets = np.repeat([move.target for move in plan.moves], counts)
        rows = sharded._stack_raw(ids)  # one gather per source shard
        arrivals = [
            (target, np.flatnonzero(targets == target)) for target in np.unique(targets)
        ]
        departures = [(source, ids[sources == source]) for source in np.unique(sources)]
        added = sharded._store_rows(
            [(int(target), ids[rows_of], rows[rows_of]) for target, rows_of in arrivals]
        )
        removed = sharded._drop_rows([(int(source), leaving) for source, leaving in departures])
        for move, count in zip(plan.moves, counts):
            owner_of_key[move.key] = move.target
            pairs = count * (count - 1) // 2
            sharded._shard_sizes[move.source] -= count
            sharded._shard_sizes[move.target] += count
            sharded._shard_collision_pairs[move.source] -= pairs
            sharded._shard_collision_pairs[move.target] += pairs
        sharded._place(ids, targets)
        # a shard that both receives and sends reports its final size last
        reported = dict(zip([int(target) for target, _ in arrivals], added))
        reported.update(zip([int(source) for source, _ in departures], removed))
        sharded._check_sizes(list(reported), list(reported.values()))
        plan.moved_vectors = int(ids.size)
    if plan.partitioner is not None and plan.partitioner.num_shards == num_shards:
        sharded.partitioner = plan.partitioner
    sharded._refresh_owner_alignment()
    return plan


def rebalance_cluster(
    sharded: ShardedMutableIndex,
    *,
    num_shards: Optional[int] = None,
    partitioner: Optional[object] = None,
) -> RebalancePlan:
    """Resize and/or re-partition a live cluster with minimal key movement.

    Parameters
    ----------
    sharded:
        The cluster to rebalance, mutated in place.
    num_shards:
        Target shard count (default: unchanged).  Growing appends empty
        shards before migration; shrinking migrates every key off the
        trailing shards, then drops them.
    partitioner:
        Target partitioner kind/class/instance (default: the current
        partitioner's kind).  Under a
        :class:`~repro.shard.partition.RendezvousPartitioner`, a resize
        ``S → S+1`` relocates an expected ``1/(S+1)`` of the bucket
        keys; a modulo :class:`~repro.shard.partition.KeyPartitioner`
        reshuffles almost everything.

    Returns the executed :class:`RebalancePlan` (moved keys/vectors and
    the adopted partitioner).
    """
    current = sharded.num_shards
    target = current if num_shards is None else int(num_shards)
    if target < 1:
        raise ValidationError(f"a cluster needs >= 1 shard, got {target}")
    if partitioner is None:
        new_partitioner = (
            sharded.partitioner
            if target == current
            else sharded.partitioner.with_num_shards(target)
        )
    else:
        new_partitioner = resolve_partitioner(partitioner, target)
    if target > current:
        sharded.add_shards(target)
    plan = plan_rebalance(sharded, new_partitioner)
    apply_plan(sharded, plan)
    if target < current:
        sharded.drop_trailing_shards(target)
    if sharded.partitioner is not new_partitioner:
        # shrink path: apply_plan could not adopt a partitioner covering
        # fewer shards than the then-live cluster — adopt it now.  The
        # plan covered every key whose owner differed from it, so owners
        # are aligned by construction; no rescan needed.
        sharded.partitioner = new_partitioner
        sharded._owner_overrides = False
    return plan


__all__ = [
    "KeyMove",
    "RebalancePlan",
    "plan_rebalance",
    "apply_plan",
    "rebalance_cluster",
]
