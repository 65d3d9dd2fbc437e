"""Tests for online shard rebalancing (repro.shard.rebalance + KeyPartitioner)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ClusterError, StrandedWritesError, ValidationError
from repro.shard import (
    KeyPartitioner,
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    plan_rebalance,
    rebalance_cluster,
)
from repro.lsh.signatures import key_signature_matrix
from repro.streaming import (
    ChangeLog,
    Delete,
    Insert,
    MutableLSHIndex,
    StreamingEstimator,
)
from repro.vectors import VectorCollection

SEED = 19
NUM_HASHES = 10


def _build_pair(collection, churn_log, *, num_shards):
    """(unsharded reference estimator, sharded cluster) over the same log."""
    log = churn_log
    unsharded = MutableLSHIndex(
        collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
    )
    log.replay(unsharded)
    reference = StreamingEstimator(unsharded, random_state=0)
    sharded = ShardedMutableIndex(
        collection.dimension,
        num_shards=num_shards,
        num_hashes=NUM_HASHES,
        random_state=SEED,
    )
    with ShardRouter(sharded, batch_size=64) as router:
        router.replay(log)
    return reference, sharded


def _assert_matches_reference(sharded, reference, *, seeds=(11, 99)):
    sharded.check_invariants()
    unsharded = reference.index
    assert sharded.size == unsharded.size
    assert sharded.num_collision_pairs == unsharded.num_collision_pairs
    assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
    estimator = ShardedStreamingEstimator(sharded)
    for seed in seeds:
        ours = estimator.estimate(0.7, random_state=seed, mode="exact")
        theirs = reference.estimate(0.7, random_state=seed, mode="exact")
        assert ours.value == theirs.value


class TestKeyPartitionerPlacement:
    def test_validation(self):
        for num_shards in (0, -1):
            with pytest.raises(ValidationError):
                KeyPartitioner(num_shards)

    def test_single_shard_is_constant(self):
        partitioner = KeyPartitioner(1)
        assert partitioner.shard_of(b"\x01" * 16) == 0
        signatures = np.arange(30, dtype=np.int64).reshape(10, 3)
        assert not partitioner.shard_of_signatures(signatures).any()

    def test_key_and_signature_paths_agree(self):
        partitioner = KeyPartitioner(7)
        rng = np.random.default_rng(0)
        signatures = rng.integers(-4, 4, size=(60, 12)).astype(np.int64)
        batch = partitioner.shard_of_signatures(signatures)
        for position in range(signatures.shape[0]):
            key = np.ascontiguousarray(signatures[position]).tobytes()
            assert partitioner.shard_of(key) == batch[position]

    def test_deterministic_and_spread(self):
        partitioner = KeyPartitioner(4)
        rng = np.random.default_rng(1)
        signatures = rng.integers(0, 2, size=(2000, 16)).astype(np.int64)
        first = partitioner.shard_of_signatures(signatures)
        np.testing.assert_array_equal(
            first, KeyPartitioner(4).shard_of_signatures(signatures)
        )
        counts = np.bincount(first, minlength=4)
        assert counts.min() > 0.15 * signatures.shape[0]

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_resize_moves_minimal_fraction(self, num_shards):
        """Growing S → S+1 relocates ~1/(S+1) of keys, all onto the new shard."""
        rng = np.random.default_rng(3)
        signatures = rng.integers(-8, 8, size=(20000, 12)).astype(np.int64)
        old = KeyPartitioner(num_shards).shard_of_signatures(signatures)
        new = KeyPartitioner(num_shards + 1).shard_of_signatures(signatures)
        moved = old != new
        assert np.mean(moved) <= 1.5 / (num_shards + 1)
        assert np.all(new[moved] == num_shards)  # only arrivals at the new shard

    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_shrink_moves_only_departing_keys(self, num_shards):
        """Shrinking S+2 → S keeps every key of the surviving shards in place."""
        rng = np.random.default_rng(4)
        signatures = rng.integers(-8, 8, size=(20000, 12)).astype(np.int64)
        old = KeyPartitioner(num_shards + 2).shard_of_signatures(signatures)
        new = KeyPartitioner(num_shards).shard_of_signatures(signatures)
        staying = old < num_shards
        np.testing.assert_array_equal(new[staying], old[staying])
        assert np.all(new < num_shards)

    def test_key_signature_matrix_round_trip(self):
        rng = np.random.default_rng(9)
        signatures = rng.integers(-4, 4, size=(25, 6)).astype(np.int64)
        keys = [np.ascontiguousarray(row).tobytes() for row in signatures]
        np.testing.assert_array_equal(key_signature_matrix(keys, 6), signatures)
        assert key_signature_matrix([], 6).shape == (0, 6)
        with pytest.raises(ValidationError):
            key_signature_matrix(keys, 5)


class TestRowMigration:
    """A resize moves the member rows of whole buckets by id; the facade's
    bucket table stays as it was and only the placement changes."""

    def test_migration_moves_member_rows_and_counters(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400), num_shards=2
        )
        table = sharded.primary_table
        buckets_before = table.bucket_state()
        sizes = [*sharded.shard_sizes, 0]
        pairs = [*sharded.shard_collision_pairs, 0]
        planned = plan_rebalance(sharded, 3)
        assert planned.moves and all(move.target == 2 for move in planned.moves)
        moved = [
            vector_id
            for move in planned.moves
            for vector_id in table.bucket_members_by_key(move.key)
        ]
        rows_before = sharded._stack_raw(np.asarray(moved)).toarray()
        for move in planned.moves:
            count = len(table.bucket_members_by_key(move.key))
            sizes[move.source] -= count
            sizes[move.target] += count
            pairs[move.source] -= count * (count - 1) // 2
            pairs[move.target] += count * (count - 1) // 2
        plan = rebalance_cluster(sharded, 3)
        sharded.check_invariants()
        assert plan == planned
        assert plan.moved_vectors == len(moved)
        assert table.bucket_state() == buckets_before
        assert sorted(sharded.shards[2].store.ids().tolist()) == sorted(moved)
        for shard in sharded.shards[:2]:
            assert set(moved).isdisjoint(shard.store.ids().tolist())
        np.testing.assert_array_equal(
            sharded._stack_raw(np.asarray(moved)).toarray(), rows_before
        )
        assert sharded.shard_sizes == tuple(sizes)
        assert sharded.shard_collision_pairs == tuple(pairs)


class TestRebalance:
    def test_grow_keeps_exact_estimates_bit_identical(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        plan = rebalance_cluster(sharded, num_shards=3)
        assert sharded.num_shards == 3
        assert plan.moved_fraction <= 1.5 / 3
        assert plan.moved_vectors > 0
        _assert_matches_reference(sharded, reference)

    def test_shrink_keeps_exact_estimates_bit_identical(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=3)
        rebalance_cluster(sharded, num_shards=2)
        assert sharded.num_shards == 2
        assert len(sharded.shards) == 2
        _assert_matches_reference(sharded, reference)

    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_snapshot_round_trips_placement(self, small_collection, churn_log_factory, num_shards):
        """A restore places every bucket on its key's pick, after a resize too."""
        reference, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400), num_shards=2
        )
        rebalance_cluster(sharded, num_shards)
        revived = ShardedMutableIndex.from_state(sharded.to_state())
        assert revived.partitioner == KeyPartitioner(num_shards)
        assert revived.shard_sizes == sharded.shard_sizes
        assert revived.shard_collision_pairs == sharded.shard_collision_pairs
        for ours, theirs in zip(revived.shards, sharded.shards):
            np.testing.assert_array_equal(ours.store.ids(), theirs.store.ids())
        _assert_matches_reference(revived, reference)

    def test_inserts_after_rebalance_follow_new_owners(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        rebalance_cluster(sharded, num_shards=3)
        # duplicates of already-indexed vectors land in existing (possibly
        # migrated) buckets — both write paths must hit the owning shard
        for row in range(20):
            sharded.insert(small_collection.row(row))
            reference.index.insert(small_collection.row(row))
        sharded.insert_many(small_collection.matrix[:15])
        reference.index.insert_many(small_collection.matrix[:15])
        _assert_matches_reference(sharded, reference)

    def test_empty_cluster_rebalance(self):
        sharded = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        plan = rebalance_cluster(sharded, num_shards=3)
        assert plan.moved_keys == 0 and plan.total_keys == 0
        assert sharded.num_shards == 3
        sharded.check_invariants()

    def test_noop_rebalance(self, small_collection, churn_log_factory):
        reference, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        plan = rebalance_cluster(sharded, 2)
        assert plan.moved_keys == 0
        _assert_matches_reference(sharded, reference)

    def test_shrink_with_occupied_trailing_shard_rejected(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=3)
        with pytest.raises(ValidationError):
            sharded.drop_trailing_shards(2)  # nothing migrated away yet

    def test_plan_reads_the_table_only(self, small_collection, churn_log_factory):
        """A plan for more shards than the cluster has needs no shard."""
        _, sharded = _build_pair(small_collection, churn_log_factory(small_collection, 400), num_shards=2)
        plan = plan_rebalance(sharded, 5)
        assert plan.num_shards == 5 and sharded.num_shards == 2
        assert plan.total_keys == sharded.primary_table.num_buckets
        assert {move.target for move in plan.moves} <= {2, 3, 4}
        with pytest.raises(ValidationError):
            plan_rebalance(sharded, 0)


class TestEstimatorMigration:
    """The facade estimator's reservoirs survive a migration and a
    restore untouched, so ``auto`` estimates replay bit-identically."""

    def test_auto_estimates_unchanged_by_rebalance(self, small_collection, churn_log_factory):
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400), num_shards=2
        )
        estimator = ShardedStreamingEstimator(sharded, reservoir_size=128, random_state=3)
        before = [estimator.estimate(0.5, random_state=s).value for s in range(5)]
        reservoirs = estimator.to_state()
        rebalance_cluster(sharded, num_shards=3)
        assert estimator.to_state() == reservoirs
        assert [estimator.estimate(0.5, random_state=s).value for s in range(5)] == before
        rebalance_cluster(sharded, num_shards=2)
        assert [estimator.estimate(0.5, random_state=s).value for s in range(5)] == before

    def test_sharded_restore_preserves_auto_estimates(self, small_collection, churn_log_factory):
        """Restores reattach the facade reservoirs instead of redrawing."""
        _, sharded = _build_pair(
            small_collection, churn_log_factory(small_collection, 400), num_shards=3
        )
        original = ShardedStreamingEstimator(sharded, reservoir_size=64, random_state=3)
        state = sharded.to_state()
        (estimator_state,) = state.pop("estimators")
        restored = ShardedStreamingEstimator.from_state(
            ShardedMutableIndex.from_state(state), estimator_state
        )
        for seed in (1, 42):
            for mode in ("auto", "exact"):
                ours = restored.estimate(0.7, random_state=seed, mode=mode)
                theirs = original.estimate(0.7, random_state=seed, mode=mode)
                assert ours.value == theirs.value, (seed, mode)


class TestMigrationPropertyBased:
    """Acceptance property (b): for arbitrary event sequences, migrating a
    cluster (grow by one shard, then shrink back) leaves exact-mode
    estimates bit-identical to an unsharded estimator, at S ∈ {2, 3}."""

    POOL_SEED = 78

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestMigrationPropertyBased.POOL_SEED)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=15, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40),
        st.sampled_from([2, 3]),
    )
    def test_migrate_then_estimate_matches_unsharded(self, ops, num_shards):
        pool = self._pool()
        log = ChangeLog()
        live = []
        next_id = 0
        for op in ops:
            if live and op % 3 == 0:
                log.append(Delete(live.pop(op % len(live))))
            else:
                log.append(Insert(pool.row_dict(op % pool.size)))
                live.append(next_id)
                next_id += 1
        unsharded = MutableLSHIndex(pool.dimension, num_hashes=6, random_state=13)
        log.replay(unsharded)
        sharded = ShardedMutableIndex(
            pool.dimension,
            num_shards=num_shards,
            num_hashes=6,
            random_state=13,
        )
        with ShardRouter(sharded, batch_size=7) as router:
            router.replay(log)
        rebalance_cluster(sharded, num_shards=num_shards + 1)
        rebalance_cluster(sharded, num_shards=num_shards)
        sharded.check_invariants()
        assert sharded.size == unsharded.size
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        if sharded.size == 0:
            return
        ours = ShardedStreamingEstimator(sharded).estimate(
            0.5, random_state=1, mode="exact"
        )
        theirs = StreamingEstimator(unsharded, random_state=5).estimate(
            0.5, random_state=1, mode="exact"
        )
        assert ours.value == theirs.value


class TestRouterFlushGuarantees:
    """Regressions: buffered inserts must never be silently dropped."""

    def test_replay_flushes_buffer_when_an_event_fails(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        log = ChangeLog()
        log.append(Insert([1.0, 0.0, 0.0, 0.0]))
        log.append(Insert([0.0, 1.0, 0.0, 0.0]))
        log.append(Insert([0.0, 0.0, 0.0]))  # wrong dimension: replay fails
        router = ShardRouter(index, batch_size=100)
        with pytest.raises(ValidationError):
            router.replay(log)
        # the two valid buffered inserts were committed, not dropped
        assert router.pending == 0
        assert index.size == 2
        router.close()

    def test_replay_without_trailing_checkpoint_flushes(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        log = ChangeLog()
        for _ in range(3):
            log.append(Insert([1.0, 0.5, 0.0, 0.0]))
        with ShardRouter(index, batch_size=100) as router:
            router.replay(log)  # ends mid-batch
            assert router.pending == 0
        assert index.size == 3

    def test_estimate_sees_buffered_inserts(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        estimator = ShardedStreamingEstimator(index, router=router)
        for _ in range(4):
            router.insert([1.0, 0.5, 0.0, 0.0])
        assert router.pending == 4
        estimate = estimator.estimate(0.5, random_state=0, mode="exact")
        assert router.pending == 0
        assert index.size == 4
        assert estimate.value > 0.0  # four duplicates: a real join size
        router.close()

    def test_close_is_idempotent_and_late_writes_flush(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.close()
        router.close()
        assert index.size == 1
        router.insert([0.0, 1.0, 0.0, 0.0])  # post-close writes fall back
        router.flush()
        assert index.size == 2


class TestCommitFailureSafety:
    """A commit that fails partway must poison the router, not double-ingest."""

    def test_failed_commit_refuses_retry(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        for _ in range(3):
            router.insert([1.0, 0.5, 0.0, 0.0])

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        originals = [shard.store.add_many for shard in index.shards]
        for shard in index.shards:
            shard.store.add_many = explode
        with pytest.raises(RuntimeError):
            router.flush()
        for shard, original in zip(index.shards, originals):
            shard.store.add_many = original
        # the commit may have partially applied: retrying would re-claim
        # ids and ingest the rows twice, so the router refuses
        with pytest.raises(ValidationError):
            router.flush()
        # close skips the unsafe final flush but must not strand the
        # buffered rows silently: it raises, carrying the unapplied rows
        with pytest.raises(StrandedWritesError) as excinfo:
            router.close()
        assert len(excinfo.value.pending_rows) == 3
        router.close()  # rows were drained into the error: now idempotent
        # the failed commit marked the index broken: no check runs on it
        with pytest.raises(ClusterError, match="broken"):
            index.check_invariants()
        assert index.size == 0
