"""Online shard rebalancing: key-range migration on the snapshot substrate.

A :class:`~repro.shard.sharded_index.ShardedMutableIndex` assigns every
*bucket key* to one shard.  Growing, shrinking, or re-partitioning the
cluster therefore reduces to moving sets of bucket keys — whole buckets,
with their member lists and rows — between shards.  This module does that
**online**, without rebuilding the cluster from the raw vectors:

* :func:`split_index_state` / :func:`splice_index_state` operate on
  :meth:`~repro.streaming.mutable_index.MutableLSHIndex.to_state`
  snapshots: the first filters a shard's state by a bucket-key
  predicate into a *remaining* state and a picklable *migration
  payload* (rows and whole buckets); the second splices
  a payload into another shard's state.  A shard holds one table, so
  moving a key moves its whole bucket and nothing else.  Payloads are
  plain picklable dicts, so a key range can be shipped to a shard on
  another node exactly like a checkpoint can.  They keep the snapshot's
  list-valued ``tables`` key (one element, with ``num_tables: 1``); a
  state or payload with more tables is refused.
* :func:`plan_rebalance` diffs the facade's live bucket owners against
  a target partitioner in one vectorised pass and returns a
  :class:`RebalancePlan` of :class:`KeyMove` entries.
* :func:`apply_plan` executes a plan: each affected shard is split /
  spliced at the state level and revived via ``from_state`` — member
  lists move verbatim and the facade's global bucket-order map only
  changes *owners*, so the merged SampleH layout (and with it every
  exact-mode estimate) stays bit-identical to an unsharded build.  The
  estimators observe the facade, whose ids, strata and reservoirs a
  migration does not touch, so nothing needs repairing afterwards and
  ``auto`` estimates stay bit-identical too.
* :func:`rebalance_cluster` is the driver: grow/shrink the shard list, swap the
  partitioner (a :class:`~repro.shard.partition.RendezvousPartitioner`
  moves only ``~1/(S+1)`` of the keys on a resize to ``S+1``), plan,
  and apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.shard.partition import (
    Partitioner,
    key_signature_matrix,
    resolve_partitioner,
)
from repro.shard.sharded_index import ShardedMutableIndex
from repro.state import StateSpec
from repro.streaming.mutable_index import check_index_state
from repro.streaming.rowstore import ROW_STORE_STATE

_MIGRATION_STATE = StateSpec(
    "a bucket-migration payload",
    {
        "dimension": Integral,
        "num_hashes": Integral,
        "num_tables": Integral,
        "ids": (list, tuple),
        "rows": Mapping,
        "tables": (list, tuple),
    },
    kind="bucket-migration",
)


# ----------------------------------------------------------------------
# state-level key-range extraction / splicing
# ----------------------------------------------------------------------
def _split_index_state_groups(
    state: Mapping[str, object], groups: Mapping[object, Iterable[bytes]]
) -> Tuple[Dict[str, object], Dict[object, Dict[str, object]]]:
    """Split a shard snapshot into one payload per key group, in one pass.

    The workhorse behind :func:`split_index_state` and
    :func:`apply_plan`: a source shard shipping keys to many targets is
    scanned and copied once, not once per target.
    """
    check_index_state(state)
    key_group: Dict[bytes, object] = {}
    for group, keys in groups.items():
        for key in keys:
            key_group[bytes(key)] = group
    (buckets,) = state["tables"]
    present = {key for key, _ in buckets}
    missing = set(key_group) - present
    if missing:
        raise ValidationError(
            f"{len(missing)} bucket key(s) are not live in this shard state"
        )
    moved_buckets: Dict[object, List[Tuple[bytes, List[int]]]] = {g: [] for g in groups}
    id_group: Dict[int, object] = {}
    remaining_buckets: List[Tuple[bytes, List[int]]] = []
    for key, members in buckets:
        group = key_group.get(key)
        if group is None:
            remaining_buckets.append((key, members))
            continue
        bucket = [int(member) for member in members]
        moved_buckets[group].append((key, bucket))
        for member in bucket:
            id_group[member] = group
    kept_live: List[int] = []
    moved_live: Dict[object, List[int]] = {g: [] for g in groups}
    for vector_id in state["live_ids"]:
        group = id_group.get(int(vector_id))
        if group is None:
            kept_live.append(int(vector_id))
        else:
            moved_live[group].append(int(vector_id))
    rows_state = state["rows"]
    row_position = {
        int(vector_id): position
        for position, vector_id in enumerate(rows_state["ids"])
    }
    matrix = rows_state["matrix"].tocsr()

    def select_rows(subset: List[int]) -> Dict[str, object]:
        if subset:
            selected = matrix[
                np.asarray([row_position[v] for v in subset], dtype=np.int64)
            ]
        else:
            selected = sparse.csr_matrix((0, int(rows_state["dimension"])))
        return ROW_STORE_STATE.dump(
            dimension=rows_state["dimension"], ids=list(subset), matrix=selected
        )

    remaining_state = dict(state)
    remaining_state["live_ids"] = kept_live
    remaining_state["rows"] = select_rows(kept_live)
    remaining_state["tables"] = [remaining_buckets]
    payloads = {
        group: _MIGRATION_STATE.dump(
            dimension=state["dimension"],
            num_hashes=state["num_hashes"],
            num_tables=1,
            ids=moved_live[group],
            rows=select_rows(moved_live[group]),
            tables=[moved_buckets[group]],
        )
        for group in groups
    }
    return remaining_state, payloads


def split_index_state(
    state: Mapping[str, object], keys: Iterable[bytes]
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Split a shard snapshot by bucket key.

    Returns ``(remaining_state, payload)``: the snapshot with the
    selected buckets (and every vector they contain) removed, and a
    picklable migration payload for :func:`splice_index_state`.  The
    selected keys must all be live buckets.  Bucket member
    lists and live-id order are preserved on both sides, which is what
    keeps the facade's merged SampleH layout — and therefore exact-mode
    estimates — bit-identical across a migration.
    """
    remaining_state, payloads = _split_index_state_groups(state, {0: keys})
    return remaining_state, payloads[0]


def splice_index_state(
    state: Mapping[str, object], payload: Mapping[str, object]
) -> Dict[str, object]:
    """Merge a :func:`split_index_state` payload into a shard snapshot.

    Migrated buckets are appended whole, in payload order (their keys
    cannot already live here — a bucket has exactly one owner).
    """
    check_index_state(state)
    _MIGRATION_STATE.check(payload)
    if payload["num_tables"] != 1 or len(payload["tables"]) != 1:
        _MIGRATION_STATE.refuse(
            f"{len(payload['tables'])} table fragments for "
            f"num_tables={payload['num_tables']}; a shard holds exactly one table"
        )
    for field_name in ("dimension", "num_hashes"):
        if int(payload[field_name]) != int(state[field_name]):
            raise ValidationError(
                f"payload {field_name}={payload[field_name]} does not match "
                f"target state {field_name}={state[field_name]}"
            )
    arriving = [int(i) for i in payload["ids"]]
    existing = {int(i) for i in state["live_ids"]}
    duplicate = existing.intersection(arriving)
    if duplicate:
        raise ValidationError(
            f"{len(duplicate)} migrating vector id(s) already live in the target"
        )
    (buckets,), (arriving_buckets,) = state["tables"], payload["tables"]
    taken = {key for key, _ in buckets}
    straddle = [key for key, _ in arriving_buckets if key in taken]
    if straddle:
        raise ValidationError(
            f"{len(straddle)} migrating bucket key(s) already live in the "
            "target shard; a bucket must have exactly one owner"
        )
    merged_buckets = [
        (key, list(members)) for key, members in (*buckets, *arriving_buckets)
    ]
    target_rows = state["rows"]
    payload_rows = payload["rows"]
    merged_rows = ROW_STORE_STATE.dump(
        dimension=target_rows["dimension"],
        ids=list(target_rows["ids"]) + list(payload_rows["ids"]),
        matrix=sparse.vstack(
            [target_rows["matrix"].tocsr(), payload_rows["matrix"].tocsr()], format="csr"
        )
        if arriving
        else target_rows["matrix"],
    )
    merged_state = dict(state)
    merged_state["live_ids"] = [int(i) for i in state["live_ids"]] + arriving
    merged_state["rows"] = merged_rows
    merged_state["tables"] = [merged_buckets]
    if arriving:
        merged_state["next_id"] = max(int(state["next_id"]), max(arriving) + 1)
    return merged_state


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
    """Execute a rebalance plan: migrate keys, remap owners.

    Affected shards are round-tripped through the snapshot substrate
    (``to_state`` → split/splice → ``from_state``), so the operation is
    exactly as lossless as checkpoint/restore.  Facade-level state
    (live-id order, the global bucket table behind SampleH / SampleL, the
    facade estimators' reservoirs) is untouched apart from the bucket
    owners, which keeps every estimate bit-identical across the
    migration.
    """
    owner_of_key = sharded._owner_of_key
    num_shards = sharded.num_shards
    outgoing: Dict[int, Dict[int, List[bytes]]] = {}
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
        outgoing.setdefault(move.source, {}).setdefault(move.target, []).append(move.key)
    if not plan.moves:
        if plan.partitioner is not None and plan.partitioner.num_shards == num_shards:
            sharded.partitioner = plan.partitioner
            sharded._refresh_owner_alignment()
        return plan

    affected = set(outgoing)
    for by_target in outgoing.values():
        affected.update(by_target)
    states = {shard_id: sharded.shards[shard_id].index.to_state() for shard_id in affected}
    arrivals: Dict[int, List[Dict[str, object]]] = {}
    for source, by_target in outgoing.items():
        states[source], payloads = _split_index_state_groups(states[source], by_target)
        for target, payload in payloads.items():
            arrivals.setdefault(target, []).append(payload)
    moved_vectors = 0
    for target, payloads in arrivals.items():
        for payload in payloads:
            states[target] = splice_index_state(states[target], payload)
            moved_vectors += len(payload["ids"])

    for shard_id in sorted(affected):
        # in process this revives the state locally; the multi-process
        # coordinator overrides the hook to ship it to the shard's worker
        sharded._adopt_shard_state(shard_id, states[shard_id])

    for move in plan.moves:
        owner_of_key[move.key] = move.target
    for target, payloads in arrivals.items():
        for payload in payloads:
            sharded._place(np.asarray(payload["ids"], dtype=np.int64), target)
    if plan.partitioner is not None and plan.partitioner.num_shards == num_shards:
        sharded.partitioner = plan.partitioner
    sharded._refresh_owner_alignment()
    plan.moved_vectors = moved_vectors
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
    "split_index_state",
    "splice_index_state",
    "plan_rebalance",
    "apply_plan",
    "rebalance_cluster",
]
