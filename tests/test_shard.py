"""Tests for the sharded scale-out subsystem (repro.shard)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterCoordinator
from repro.errors import ClusterError, StrandedWritesError, ValidationError
from repro.shard import (
    KeyPartitioner,
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    ShardWorker,
    rebalance_cluster,
)
from repro.shard.partition import signature_shard_hash
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


@pytest.fixture(scope="module")
def churned_pair(small_collection, churn_log_factory):
    """(unsharded index, sharded S=4 index) fed the same 400-op churn log."""
    log = churn_log_factory(small_collection, 400)
    unsharded = MutableLSHIndex(
        small_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
    )
    log.replay(unsharded)
    sharded = ShardedMutableIndex(
        small_collection.dimension, num_shards=4, num_hashes=NUM_HASHES, random_state=SEED
    )
    with ShardRouter(sharded, batch_size=32) as router:
        router.replay(log)
    return unsharded, sharded


class TestKeyPartitioner:
    def test_validation(self):
        with pytest.raises(ValidationError):
            KeyPartitioner(0)

    def test_single_shard_is_constant(self):
        partitioner = KeyPartitioner(1)
        assert partitioner.shard_of(b"\x01" * 16) == 0

    def test_key_and_signature_paths_agree(self):
        partitioner = KeyPartitioner(7)
        rng = np.random.default_rng(0)
        signatures = rng.integers(0, 2, size=(50, 12)).astype(np.int64)
        batch = partitioner.shard_of_signatures(signatures)
        for position in range(signatures.shape[0]):
            key = np.ascontiguousarray(signatures[position]).tobytes()
            assert partitioner.shard_of(key) == batch[position]

    def test_deterministic_and_spread(self):
        partitioner = KeyPartitioner(4)
        rng = np.random.default_rng(1)
        signatures = rng.integers(0, 2, size=(2000, 16)).astype(np.int64)
        first = partitioner.shard_of_signatures(signatures)
        second = partitioner.shard_of_signatures(signatures)
        np.testing.assert_array_equal(first, second)
        counts = np.bincount(first, minlength=4)
        # 0/1-valued SimHash signatures must still spread across shards
        assert counts.min() > 0.15 * signatures.shape[0]

    def test_hash_handles_1d_and_2d(self):
        one = signature_shard_hash(np.array([1, 0, 1], dtype=np.int64))
        two = signature_shard_hash(np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64))
        assert one.shape == (1,)
        assert two.shape == (2,)
        assert one[0] == two[0]          # same row → same hash
        assert two[0] != two[1]          # differing rows must split


class TestShardedMutableIndex:
    def test_strata_match_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        sharded.check_invariants()
        assert sharded.size == unsharded.size
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        assert sorted(sharded.ids.tolist()) == sorted(unsharded.ids.tolist())

    def test_live_id_order_matches_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        np.testing.assert_array_equal(sharded.ids, unsharded.ids)

    def test_cosine_pairs_match_unsharded(self, churned_pair, rng):
        unsharded, sharded = churned_pair
        ids = unsharded.ids
        left = ids[rng.integers(0, ids.size, size=64)]
        right = ids[rng.integers(0, ids.size, size=64)]
        np.testing.assert_array_equal(
            sharded.cosine_pairs(left, right), unsharded.cosine_pairs(left, right)
        )

    def test_sampling_bit_identical_to_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        for seed in (0, 7):
            u_left, u_right = unsharded.sample_collision_pairs(128, random_state=seed)
            s_left, s_right = sharded.sample_collision_pairs(128, random_state=seed)
            np.testing.assert_array_equal(s_left, u_left)
            np.testing.assert_array_equal(s_right, u_right)
            u_left, u_right = unsharded.sample_non_collision_pairs(128, random_state=seed)
            s_left, s_right = sharded.sample_non_collision_pairs(128, random_state=seed)
            np.testing.assert_array_equal(s_left, u_left)
            np.testing.assert_array_equal(s_right, u_right)

    def test_facade_streaming_estimator_bit_identical(self, small_collection, churn_log_factory):
        """A plain StreamingEstimator over the facade — reservoirs and all —
        tracks the unsharded one bit for bit through churn."""
        log = churn_log_factory(small_collection, 250, seed=5)
        unsharded = MutableLSHIndex(
            small_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
        )
        reference = StreamingEstimator(unsharded, random_state=7)
        log.replay(unsharded)
        sharded = ShardedMutableIndex(
            small_collection.dimension,
            num_shards=3,
            num_hashes=NUM_HASHES,
            random_state=SEED,
        )
        facade_estimator = StreamingEstimator(sharded, random_state=7)
        log.replay(sharded)  # the facade is a drop-in index for replay
        for mode in ("auto", "exact", "reservoir"):
            ours = facade_estimator.estimate(0.7, random_state=123, mode=mode)
            theirs = reference.estimate(0.7, random_state=123, mode=mode)
            assert ours.value == theirs.value

    def test_to_collection_matches_unsharded(self, churned_pair):
        unsharded, sharded = churned_pair
        u_coll, u_ids = unsharded.to_collection()
        s_coll, s_ids = sharded.to_collection()
        np.testing.assert_array_equal(s_ids, u_ids)
        assert (u_coll.matrix != s_coll.matrix).nnz == 0

    def test_insert_validation(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        with pytest.raises(ValidationError):
            index.insert([1.0, 2.0])  # wrong dimension
        vector_id = index.insert([1.0, 0.0, 0.0, 1.0])
        with pytest.raises(ValidationError):
            index.insert([0.0, 1.0, 0.0, 0.0], vector_id=vector_id)
        with pytest.raises(ValidationError):
            index.delete(vector_id + 1)
        index.delete(vector_id)
        assert index.size == 0

    def test_row_and_contains(self):
        index = ShardedMutableIndex(3, num_shards=2, num_hashes=4, random_state=0)
        vector_id = index.insert({0: 2.0, 2: 1.0})
        assert vector_id in index
        row = index.row(vector_id)
        assert row.shape == (1, 3)
        assert row[0, 0] == 2.0
        with pytest.raises(ValidationError):
            index.row(99)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            ShardedMutableIndex(0, num_shards=2)
        with pytest.raises(ValidationError):
            ShardedMutableIndex(4, num_shards=0)


class TestShardRouter:
    def test_delete_of_buffered_insert_stays_buffered(self, monkeypatch):
        """A delete of a still-buffered insert buffers too; at the flush the
        row reaches no shard, and the facade and shard sizes agree."""
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        sent = []
        send_request = ShardWorker.send_request

        def recording(worker, op, payload=None):
            sent.append((op, payload))
            send_request(worker, op, payload)

        monkeypatch.setattr(ShardWorker, "send_request", recording)
        router = ShardRouter(index, batch_size=100)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.insert([0.0, 1.0, 0.0, 0.0])
        assert router.pending == 2 and index.size == 0
        router.delete(0)  # targets a still-buffered row
        assert router.pending == 3 and index.size == 0 and sent == []
        assert router.flush() == 3
        assert router.pending == 0 and index.size == 1 and index.ids.tolist() == [1]
        assert [op for op, _payload in sent] == ["write"]
        assert sent[0][1]["ids"].tolist() == [1] and "drop" not in sent[0][1]
        assert [len(shard.store) for shard in index.shards] == list(index.shard_sizes)
        assert sum(index.shard_sizes) == 1
        index.check_invariants()
        router.close()

    def test_bad_delete_refused_at_once(self):
        """An unknown id, or one deleted twice within one buffer, raises when
        it is buffered and leaves the buffer as it was."""
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.flush()
        router.insert([0.0, 1.0, 0.0, 0.0])  # will get id 1
        router.delete(0)
        router.delete(1)
        for bad in (0, 1, 2, -1, 99):  # deleted twice (live, buffered), unknown
            with pytest.raises(ValidationError, match=f"vector id {bad} is not"):
                router.delete(bad)
            assert router.pending == 3
        assert router.flush() == 3
        assert index.size == 0 and index.next_id == 2
        index.check_invariants()
        router.close()

    def test_replay_emits_at_checkpoints(self, small_collection, churn_log_factory):
        log = churn_log_factory(small_collection, 120, seed=3, checkpoint=True)
        sharded = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=SEED
        )
        estimator = ShardedStreamingEstimator(sharded)
        with ShardRouter(sharded, batch_size=50) as router:
            results = router.replay(log, estimator=estimator, threshold=0.7, random_state=1)
        assert [label for label, _ in results] == ["end"]
        assert results[0][1].value >= 0.0

    def test_validation(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        with pytest.raises(ValidationError):
            ShardRouter(index, batch_size=0)


class TestRouterFailurePaths:
    """Regression tests for the shutdown / failure hardening of the router."""

    @staticmethod
    def _router_with_failed_commit(buffered=3, batch_size=100):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=batch_size)
        for position in range(buffered):
            row = [0.0, 0.0, 0.0, 0.0]
            row[position % 4] = 1.0
            router.insert(row)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        for shard in index.shards:
            shard.store.add_many = explode
        with pytest.raises(RuntimeError):
            router.flush()
        return index, router

    def test_close_raises_instead_of_stranding_buffered_rows(self):
        _index, router = self._router_with_failed_commit(buffered=3)
        assert router.commit_failed and router.pending == 3
        with pytest.raises(StrandedWritesError) as excinfo:
            router.close()
        stranded = excinfo.value.pending_rows
        assert len(stranded) == 3
        # the stranded rows are the actual unapplied inserts, replayable
        # onto a fresh cluster
        assert all(row.shape == (1, 4) for row in stranded)
        # buffer drained: now idempotent
        router.close()
        router.close()

    def test_close_surfaces_stranded_deletes(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.insert([0.0, 1.0, 0.0, 0.0])
        router.flush()
        router.insert([0.0, 0.0, 1.0, 0.0])  # will get id 2
        router.delete(1)
        router.delete(2)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        for shard in index.shards:
            shard.store.add_many = explode
            shard.store.remove_many = explode
        with pytest.raises(RuntimeError):
            router.flush()
        with pytest.raises(StrandedWritesError) as excinfo:
            router.close()
        assert len(excinfo.value.pending_rows) == 1
        assert excinfo.value.pending_deletes == [1, 2]
        assert router.pending == 0
        router.close()

    def test_drain_pending_then_close_quietly(self):
        _index, router = self._router_with_failed_commit(buffered=2)
        rows = router.drain_pending().rows
        assert len(rows) == 2 and router.pending == 0
        router.close()  # nothing stranded any more
        fresh = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        with ShardRouter(fresh) as replacement:
            for row in rows:
                replacement.insert(row)
        assert fresh.size == 2

    def test_half_applied_flush_breaks_the_index(self, small_collection):
        """One shard stores its slice, the next refuses: the index is
        broken, and later writes and reads raise without applying."""
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=0
        )
        index.insert_many(small_collection.matrix[:20])
        router = ShardRouter(index, batch_size=100)
        for position in range(20, 30):
            router.insert(small_collection.row(position))

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        index.shards[1].store.add_many = explode
        with pytest.raises(RuntimeError):
            router.flush()
        assert index.broken is not None
        assert index.size == 20
        live = int(index.ids[0])
        for write_or_read in (
            lambda: index.insert(small_collection.row(30)),
            lambda: index.delete(live),
            lambda: index.cosine_pairs([live], [live]),
        ):
            with pytest.raises(ClusterError, match="broken"):
                write_or_read()
            assert index.size == 20
        assert len(router.drain_pending()) == 10
        router.close()

    def test_failed_delete_breaks_the_index(self, small_collection):
        """A shard that fails a row delete may have dropped the row: the
        index is broken, and a later write raises without applying."""
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=0
        )
        index.insert_many(small_collection.matrix[:20])
        victim = int(index.ids[0])

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        index.shard_of(victim).store.remove_many = explode
        with pytest.raises(RuntimeError):
            index.delete(victim)
        assert index.broken is not None
        assert victim in index and index.size == 20
        with pytest.raises(ClusterError, match="broken"):
            index.insert(small_collection.row(20))
        assert index.size == 20

    def test_failed_read_leaves_the_index_usable(self, small_collection):
        """A row gather changes no shard, so its failure does not break the
        index: the same read then succeeds, and so do writes."""
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=0
        )
        index.insert_many(small_collection.matrix[:20])
        assert min(index.shard_sizes) > 0
        ids = index.ids
        expected = index.cosine_pairs(ids[:10], ids[10:])
        store = index.shards[1].store
        csr_parts = store.csr_parts
        calls = []

        def fail_once(*args, **kwargs):
            calls.append(args)
            if len(calls) == 1:
                raise RuntimeError("transient read failure")
            return csr_parts(*args, **kwargs)

        store.csr_parts = fail_once
        with pytest.raises(RuntimeError):
            index.cosine_pairs(ids[:10], ids[10:])
        assert index.broken is None
        np.testing.assert_array_equal(index.cosine_pairs(ids[:10], ids[10:]), expected)
        index.insert(small_collection.row(20))
        assert index.size == 21
        index.check_invariants()

    def test_context_manager_chains_stranded_error_under_original(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)

        def explode(*args, **kwargs):
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError) as excinfo:
            with ShardRouter(index, batch_size=100) as router:
                router.insert([1.0, 0.0, 0.0, 0.0])
                for shard in index.shards:
                    shard.store.add_many = explode
                router.flush()
        # the with-body error stays primary; the close-time stranding is
        # chained context, not a mask
        assert isinstance(excinfo.value.__context__, StrandedWritesError)

    def test_replay_midbatch_failure_chains_flush_error(self, small_collection):
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=4, random_state=0
        )
        router = ShardRouter(index, batch_size=50)
        events = [
            Insert(small_collection.row_dict(0)),
            Insert(small_collection.row_dict(1)),
            object(),  # unknown event type fails mid-stream, 2 rows buffered
        ]

        def explode(*args, **kwargs):
            raise RuntimeError("flush also failed")

        index.commit_batch = explode  # …and the recovery flush fails too
        with pytest.raises(ValidationError) as excinfo:
            router.replay(events)
        # the recovery-flush failure is attached to the original error's
        # context chain instead of being swallowed
        context = excinfo.value.__context__
        assert isinstance(context, RuntimeError)
        assert "flush also failed" in str(context)
        # the unapplied rows stay recoverable
        assert router.pending == 2
        assert len(router.drain_pending()) == 2
        router.close()

    def test_write_after_close_falls_back_to_synchronous(self):
        index = ShardedMutableIndex(4, num_shards=2, num_hashes=4, random_state=0)
        router = ShardRouter(index, batch_size=100)
        router.insert([1.0, 0.0, 0.0, 0.0])
        router.close()
        assert index.size == 1
        # late writers after close: buffered, then flushed on the next close
        router.insert([0.0, 1.0, 0.0, 0.0])
        assert router.pending == 1
        router.close()
        assert index.size == 2 and router.pending == 0
        index.check_invariants()


def _assert_strata_identities(sharded):
    """The facade's per-shard counters add up, and each shard's size and
    N_H equal a recount from the live ids, the facade table and each
    key's pick."""
    assert sharded.num_collision_pairs == sum(sharded.shard_collision_pairs)
    assert sharded.size == sum(sharded.shard_sizes)
    assert (
        sharded.num_collision_pairs + sharded.num_non_collision_pairs
        == sharded.total_pairs
    )
    intra_l = sum(
        n * (n - 1) // 2 - collisions
        for n, collisions in zip(sharded.shard_sizes, sharded.shard_collision_pairs)
    )
    cross_shard_pairs = sharded.total_pairs - sum(n * (n - 1) // 2 for n in sharded.shard_sizes)
    assert sharded.num_non_collision_pairs == intra_l + cross_shard_pairs
    assert cross_shard_pairs >= 0
    _, ids = sharded.to_collection()
    bucket_sizes = Counter(sharded.primary_table.signature_key(int(i)) for i in ids)
    sizes = [0] * sharded.num_shards
    pairs = [0] * sharded.num_shards
    for key, count in bucket_sizes.items():
        owner = sharded.partitioner.shard_of(key)
        sizes[owner] += count
        pairs[owner] += count * (count - 1) // 2
    assert sharded.shard_sizes == tuple(sizes)
    assert sharded.shard_collision_pairs == tuple(pairs)
    # through the `ids` op: on the process shape a shard is a WorkerHandle
    replies = sharded._fan_out("ids", sharded._to_every_shard())
    assert [reply["ids"].size for reply in replies] == sizes
    sharded.check_invariants()


class TestMergeLayer:
    @pytest.mark.timeout(240)
    def test_merged_strata_identities(self, churned_pair, small_collection, churn_log_factory):
        """After churn, a rebalance and a snapshot round trip, on the
        sharded and process shapes."""
        _, churned = churned_pair
        rebalanced = ShardedMutableIndex.from_state(churned.to_state())
        rebalance_cluster(rebalanced, num_shards=3)
        clusters = [ClusterCoordinator(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES,
            random_state=SEED, request_timeout=30.0,
        )]
        try:
            with ShardRouter(clusters[0], batch_size=32) as router:
                router.replay(churn_log_factory(small_collection, 200))
            _assert_strata_identities(clusters[0])
            rebalance_cluster(clusters[0], num_shards=3)
            clusters.append(ClusterCoordinator.from_state(
                clusters[0].to_state(), request_timeout=30.0
            ))
            for sharded in (
                churned, rebalanced, ShardedMutableIndex.from_state(rebalanced.to_state()),
                *clusters,
            ):
                _assert_strata_identities(sharded)
        finally:
            for cluster in clusters:
                cluster.close()

    def test_exact_mode_bit_identical(self, churned_pair):
        unsharded, sharded = churned_pair
        reference = StreamingEstimator(unsharded, random_state=0)
        estimator = ShardedStreamingEstimator(sharded)
        for seed in (1, 99):
            ours = estimator.estimate(0.7, random_state=seed, mode="exact")
            theirs = reference.estimate(0.7, random_state=seed, mode="exact")
            assert ours.value == theirs.value
            assert ours.details["num_collision_pairs"] == theirs.details["num_collision_pairs"]

    def test_facade_reservoirs_sample_valid_strata(self, churned_pair):
        _, sharded = churned_pair
        estimator = ShardedStreamingEstimator(sharded, random_state=0)
        view = sharded.primary_table
        left, right = estimator._reservoir_h.arrays()
        assert left.size and np.all(view.same_bucket_many(left, right))
        assert np.all(left != right)
        left, right = estimator._reservoir_l.arrays()
        assert left.size and not np.any(view.same_bucket_many(left, right))
        result = estimator.estimate(0.7, random_state=1)
        assert result.details["source_h"] == result.details["source_l"] == "reservoir"
        assert result.details["num_shards"] == sharded.num_shards

    def test_merged_mode_refused(self, churned_pair):
        _, sharded = churned_pair
        estimator = ShardedStreamingEstimator(sharded, random_state=0)
        with pytest.raises(ValidationError, match="'auto', 'exact', 'reservoir'"):
            estimator.estimate(0.7, mode="merged")

    def test_parameter_validation(self, churned_pair):
        # the LSH-SS parameters are in test_core_lsh_ss's rejection table
        _, sharded = churned_pair
        estimator = ShardedStreamingEstimator(sharded)
        with pytest.raises(ValidationError):
            estimator.estimate(0.7, mode="telepathy")

    def test_empty_cluster_estimates_zero(self):
        sharded = ShardedMutableIndex(4, num_shards=3, num_hashes=4, random_state=0)
        estimator = ShardedStreamingEstimator(sharded)
        assert estimator.estimate(0.5, random_state=0).value == 0.0


class TestSnapshotRestore:
    def test_mutable_index_round_trip(self, small_collection):
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=NUM_HASHES, random_state=SEED
        )
        index.delete(3)
        index.insert(small_collection.row(1))
        revived = MutableLSHIndex.from_state(index.to_state())
        revived.check_invariants()
        assert revived.size == index.size
        assert revived.num_collision_pairs == index.num_collision_pairs
        # identical sampling draws and similarities after restore
        left, right = index.sample_collision_pairs(64, random_state=5)
        r_left, r_right = revived.sample_collision_pairs(64, random_state=5)
        np.testing.assert_array_equal(r_left, left)
        np.testing.assert_array_equal(r_right, right)
        np.testing.assert_array_equal(
            revived.cosine_pairs(left, right), index.cosine_pairs(left, right)
        )
        # restored index accepts further mutations with fresh ids
        new_id = revived.insert(small_collection.row(0))
        assert new_id == index._next_id

    def test_sharded_round_trip(self, churned_pair):
        _, sharded = churned_pair
        revived = ShardedMutableIndex.from_state(sharded.to_state())
        revived.check_invariants()
        assert revived.num_shards == sharded.num_shards
        assert revived.num_collision_pairs == sharded.num_collision_pairs
        original = ShardedStreamingEstimator(sharded).estimate(
            0.7, random_state=42, mode="exact"
        )
        restored = ShardedStreamingEstimator(revived).estimate(
            0.7, random_state=42, mode="exact"
        )
        assert restored.value == original.value
        # a shard holds rows only: a whole index state in its place (as
        # format-2 shards carried, tables and all) is refused, not adopted
        state = sharded.to_state()
        assert set(state["shards"][0]) == {"dimension", "ids", "matrix"}
        shard = MutableLSHIndex(sharded.dimension, num_hashes=NUM_HASHES, family=sharded.family)
        state["shards"][0] = shard.to_state()
        with pytest.raises(ValidationError, match="row-store state"):
            ShardedMutableIndex.from_state(state)

    def test_bad_snapshot_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            MutableLSHIndex.from_state({"format": 99})
        with pytest.raises(ValidationError):
            ShardedMutableIndex.from_state({"format": 1, "kind": "plain"})


class TestShardMergePropertyBased:
    """Hypothesis acceptance property: any event sequence replayed through a
    ShardRouter over S shards yields the same strata counts and the same
    (bit-identical) exact estimate as one unsharded MutableLSHIndex."""

    POOL_SEED = 77

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestShardMergePropertyBased.POOL_SEED)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40),
        st.sampled_from([1, 2, 7]),
    )
    def test_any_op_sequence_matches_unsharded(self, ops, num_shards):
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
            pool.dimension, num_shards=num_shards, num_hashes=6, random_state=13
        )
        with ShardRouter(sharded, batch_size=7) as router:
            router.replay(log)
        sharded.check_invariants()
        assert sharded.size == unsharded.size
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        if sharded.size == 0:
            assert ShardedStreamingEstimator(sharded).estimate(0.5).value == 0.0
            return
        ours = ShardedStreamingEstimator(sharded).estimate(
            0.5, random_state=1, mode="exact"
        )
        theirs = StreamingEstimator(unsharded, random_state=5).estimate(
            0.5, random_state=1, mode="exact"
        )
        assert ours.value == theirs.value
