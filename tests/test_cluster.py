"""Tests for the multi-process shard serving subsystem (repro.cluster).

Every test that spawns worker processes carries a hard
``@pytest.mark.timeout`` (see tests/conftest.py): a deadlocked worker or
coordinator must fail the test quickly, never hang the suite.
"""

import itertools
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.cluster import ClusterCoordinator, ProcessBackend, WorkerHandle, parse_address
from repro.cluster import worker as worker_module
from repro.engine import EngineConfig, JoinEstimationEngine, resolve_backend
from repro.errors import (
    ClusterError,
    InsufficientSampleError,
    ValidationError,
    WorkerCrashError,
)
from repro.obs import MetricsRegistry
from repro.shard import (
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    ShardWorker,
    rebalance_cluster,
)
from repro.streaming import ChangeLog, Delete, Insert, MutableLSHIndex, StreamingEstimator
from repro.vectors import VectorCollection, coerce_row

SEED = 7
NUM_HASHES = 10
THRESHOLD = 0.7

#: fail fast in tests: a worker that needs >30s for one op is stuck
FAST = {"request_timeout": 30.0}


def process_config(dimension, shards=3, **options):
    merged = {"shards": shards, **FAST, **options}
    return EngineConfig(
        backend="process",
        num_hashes=NUM_HASHES,
        seed=SEED,
        dimension=dimension,
        options=merged,
    )


def reference_estimator(collection, log):
    """The unsharded stack under the engine's determinism contract."""
    index = MutableLSHIndex(
        collection.dimension, num_hashes=NUM_HASHES, random_state=SEED + 1
    )
    log.replay(index)
    return StreamingEstimator(index, random_state=SEED + 2)


@pytest.fixture(scope="module")
def churned_cluster(small_collection, churn_log_factory):
    """(unsharded StreamingEstimator, open process engine) on one churn log."""
    log = churn_log_factory(small_collection, 250)
    engine = JoinEstimationEngine(process_config(small_collection.dimension)).open()
    engine.ingest(log)
    engine.flush()
    yield reference_estimator(small_collection, log), engine
    engine.close()


class TestProcessBackendFidelity:
    def test_declared(self):
        assert resolve_backend("process") is ProcessBackend

    @pytest.mark.timeout(180)
    def test_exact_mode_bit_identical_to_unsharded(self, churned_cluster):
        reference, engine = churned_cluster
        for seed in (3, 11, 101):
            ours = engine.estimate(THRESHOLD, seed=seed, mode="exact")
            theirs = reference.estimate(THRESHOLD, random_state=seed, mode="exact")
            assert ours.value == theirs.value
            assert ours.provenance.backend == "process"
        details = ours.provenance.backend_details
        assert details["num_shards"] == 3
        assert sum(details["shard_sizes"]) == details["size"]
        assert len(details["workers"]) == 3
        assert all(info["alive"] for info in details["workers"])

    @pytest.mark.timeout(180)
    def test_strata_match_reference(self, churned_cluster):
        reference, engine = churned_cluster
        backend = engine.backend
        assert backend.size == reference.index.size
        assert backend.index.num_collision_pairs == reference.index.num_collision_pairs
        assert backend.index.num_non_collision_pairs == reference.index.num_non_collision_pairs
        backend.index.check_invariants()

    @pytest.mark.timeout(180)
    def test_merged_mode_refused(self, churned_cluster):
        reference, engine = churned_cluster
        with pytest.raises(ValidationError, match="'auto', 'exact', 'reservoir'"):
            engine.estimate(THRESHOLD, seed=2, mode="merged")

    @pytest.mark.timeout(180)
    def test_auto_estimates_independent_of_shape_and_shard_count(
        self, small_collection, churn_log_factory
    ):
        """One facade reservoir: in process with S = 3 and across two
        worker processes, the same seed and events give the same answers."""
        log = churn_log_factory(small_collection, 150)
        sharded = EngineConfig(
            backend="sharded", num_hashes=NUM_HASHES, seed=SEED,
            dimension=small_collection.dimension, options={"num_shards": 3},
        )
        answers = []
        for config in (sharded, process_config(small_collection.dimension, shards=2)):
            with JoinEstimationEngine(config) as engine:
                engine.ingest(log)
                results = [engine.estimate(0.5, seed=seed) for seed in (1, 5, 9)]
            answers.append([(r.value, r.details["samples_taken_l"]) for r in results])
        assert answers[0] == answers[1]
        assert all(r.details["source_h"] == "reservoir" for r in results)

    @pytest.mark.timeout(180)
    def test_snapshot_restores_bit_identically_across_shapes(
        self, churned_cluster, tmp_path
    ):
        reference, engine = churned_cluster
        want = engine.estimate(THRESHOLD, seed=13, mode="exact").value
        path = tmp_path / "cluster.pkl"
        engine.snapshot(path)
        want_auto = [engine.estimate(THRESHOLD, seed=seed).value for seed in (13, 14)]
        # same shape: a fresh process cluster
        revived = JoinEstimationEngine.restore(path)
        try:
            assert revived.config.backend == "process"
            assert revived.estimate(THRESHOLD, seed=13, mode="exact").value == want
            # the facade reservoirs travel in the bundle: no redraw
            assert [revived.estimate(THRESHOLD, seed=seed).value for seed in (13, 14)] == (
                want_auto
            )
            revived.backend.index.check_invariants()
        finally:
            revived.close()
        # cross shape: the embedded index state revives in process too
        import pickle

        with open(path, "rb") as handle:
            state = pickle.load(handle)
        in_process = ShardedMutableIndex.from_state(state["backend"]["index"])
        in_process.check_invariants()
        merged = ShardedStreamingEstimator(in_process)
        assert merged.estimate(THRESHOLD, random_state=13, mode="exact").value == want


class TestRemoteRebalance:
    @pytest.mark.timeout(240)
    def test_grow_and_shrink_keep_exact_estimates(self, small_collection, churn_log_factory):
        log = churn_log_factory(small_collection, 150)
        reference = reference_estimator(small_collection, log)
        want = reference.estimate(THRESHOLD, random_state=9, mode="exact").value
        config = process_config(small_collection.dimension, shards=2)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(log)
            engine.flush()
            want_auto = engine.estimate(THRESHOLD, seed=9).value
            plan = engine.rebalance(num_shards=4)
            assert plan.moved_keys >= 0
            cluster = engine.backend.index
            assert cluster.num_shards == 4
            assert len(cluster.worker_infos) == 4
            cluster.check_invariants()
            assert engine.estimate(THRESHOLD, seed=9, mode="exact").value == want
            engine.rebalance(num_shards=3)
            cluster = engine.backend.index
            assert cluster.num_shards == 3
            # the dropped shard's worker process must be reaped
            assert len(cluster.worker_infos) == 3
            cluster.check_invariants()
            assert engine.estimate(THRESHOLD, seed=9, mode="exact").value == want
            # migration leaves the facade reservoirs alone
            assert engine.estimate(THRESHOLD, seed=9).value == want_auto
            # the rebalance-synced config carries no stale 'shards' alias
            # next to the adopted 'num_shards' — it must re-open cleanly
            assert "shards" not in engine.config.options
            assert engine.config.options["num_shards"] == 3
            ProcessBackend(EngineConfig.from_dict(engine.config.to_dict()))


    @pytest.mark.timeout(240)
    def test_rebalance_migrates_rows_not_snapshots(self, small_collection, churn_log_factory):
        """Rows move by id through insert/delete fan-outs: no shard state is
        snapshotted or restored, and the answers match an in-process
        cluster rebalanced the same way, bit for bit."""
        log = churn_log_factory(small_collection, 150)
        registry = MetricsRegistry()
        shape = dict(num_shards=3, num_hashes=NUM_HASHES, random_state=SEED)
        in_process = ShardedMutableIndex(small_collection.dimension, **shape)
        cluster = ClusterCoordinator(
            small_collection.dimension, metrics=registry, **shape, **FAST
        )
        try:
            for index in (in_process, cluster):
                with ShardRouter(index, batch_size=32) as router:
                    router.replay(log)
            snapshots = [
                registry.counter("cluster_requests_total", op=op) for op in ("snapshot", "restore")
            ]
            plan = rebalance_cluster(cluster, num_shards=4)
            assert rebalance_cluster(in_process, num_shards=4) == plan
            assert plan.moved_vectors > 0
            assert [counter.value for counter in snapshots] == [0, 0]
            cluster.check_invariants()
            assert cluster.shard_sizes == in_process.shard_sizes
            assert cluster.shard_collision_pairs == in_process.shard_collision_pairs
            for seed in (3, 17):
                ours = ShardedStreamingEstimator(cluster).estimate(
                    THRESHOLD, random_state=seed, mode="exact"
                )
                theirs = ShardedStreamingEstimator(in_process).estimate(
                    THRESHOLD, random_state=seed, mode="exact"
                )
                assert ours.value == theirs.value
                for key in ("shard_sizes", "shard_collision_pairs", "cross_shard_pairs"):
                    assert ours.details[key] == theirs.details[key]
        finally:
            cluster.close()


class TestClusterFailurePaths:
    @pytest.mark.timeout(120)
    def test_worker_crash_mid_ingest_surfaces_not_hangs(self, small_collection):
        engine = JoinEstimationEngine(
            process_config(small_collection.dimension, shards=3, batch_size=16)
        ).open()
        coordinator = engine.backend.index
        try:
            engine.ingest(small_collection)
            victim = coordinator._handles[1]
            victim.process.kill()
            victim.process.join(timeout=10)
            # the bulk ingest commits straight through the coordinator and
            # must surface the dead worker, not hang
            with pytest.raises(WorkerCrashError):
                engine.ingest(small_collection)
            assert coordinator.broken is not None
            # once broken, every further op reports the cluster state clearly
            live = int(coordinator.ids[0])
            with pytest.raises(ClusterError):
                engine.ingest([Insert(np.zeros(small_collection.dimension)), Delete(live)])
                engine.flush()  # the buffered writes must not commit quietly
            # the unapplied insert and delete stay recoverable; with the
            # buffer drained, estimates surface the broken cluster rather
            # than hanging
            pending = engine.backend._router.drain_pending()
            assert len(pending.rows) == 1 and pending.deletes == [live]
            with pytest.raises(ClusterError):
                engine.estimate(THRESHOLD, seed=1, mode="exact")
        finally:
            try:
                engine.close()
            except ClusterError:
                pass
        for info in coordinator.worker_infos:
            assert not info["alive"]

    @pytest.mark.timeout(120)
    def test_worker_crash_mid_estimate_surfaces_not_hangs(self, small_collection):
        engine = JoinEstimationEngine(process_config(small_collection.dimension)).open()
        try:
            engine.ingest(small_collection)
            victim = engine.backend.index._handles[0]
            victim.process.kill()
            victim.process.join(timeout=10)
            with pytest.raises(WorkerCrashError):
                engine.estimate(THRESHOLD, seed=1, mode="exact")
        finally:
            try:
                engine.close()
            except ClusterError:
                pass

    @pytest.mark.timeout(120)
    def test_close_is_idempotent_and_reaps_workers(self, small_collection):
        engine = JoinEstimationEngine(process_config(small_collection.dimension)).open()
        engine.ingest(small_collection)
        coordinator = engine.backend.index
        processes = [handle.process for handle in coordinator._handles]
        engine.close()
        engine.close()  # idempotent
        coordinator.close()  # and directly on the coordinator too
        for process in processes:
            assert not process.is_alive()
        with pytest.raises(ClusterError):
            coordinator.insert(np.zeros(small_collection.dimension))

    @pytest.mark.timeout(120)
    def test_unreachable_worker_fails_fast(self):
        # nothing listens on the discard port: construction fails with a
        # clear error instead of hanging
        with pytest.raises(ClusterError):
            ClusterCoordinator(
                8,
                num_shards=2,
                num_hashes=4,
                addresses=["127.0.0.1:9", "127.0.0.1:9"],
                request_timeout=5.0,
            )

    @pytest.mark.timeout(120)
    def test_worker_side_error_propagates_as_library_type(self):
        # a worker-side refusal comes back as the same library type, and
        # the worker keeps serving its shard
        with ClusterCoordinator(8, num_shards=2, num_hashes=4, **FAST) as cluster:
            handle = cluster._handles[1]

            def request(op, payload=None):
                handle.send_request(op, payload)
                return handle.recv_reply(op)

            with pytest.raises(ValidationError, match="not in"):
                request("write", {"drop": [12345]})
            # per-shard estimator ops, worker-side sampling and the shard
            # bucket table are gone
            for op in (
                "reservoir", "account_migration", "close_estimator", "sample_pairs",
                "bucket_members",
            ):
                with pytest.raises(ClusterError, match="unknown worker op"):
                    request(op, {"stratum": "l"})
            assert request("ping")["shard_id"] == 1

    def test_option_validation(self):
        # conflicting shard-count aliases are rejected when the backend opens
        config = EngineConfig(
            backend="process", dimension=8, options={"shards": 2, "num_shards": 3}
        )
        with pytest.raises(ValidationError):
            JoinEstimationEngine(config).open()
        with pytest.raises(ValidationError):
            EngineConfig(backend="process", dimension=8, options={"bogus": 1})
        with pytest.raises(ValidationError):
            ClusterCoordinator(8, num_shards=3, addresses=["127.0.0.1:1024"])

    def test_parse_address(self):
        assert parse_address("localhost:1234") == ("localhost", 1234)
        for bad in ("nope", "host:", "host:0", "host:notaport", ":88"):
            with pytest.raises(ValidationError):
                parse_address(bad)


class TestStandaloneWorkers:
    """The ``repro worker`` serving loop, exercised in-process via threads."""

    @staticmethod
    def _start_worker(token=None, once=True):
        ready = threading.Event()
        bound = {}

        def on_ready(address):
            bound["address"] = address
            ready.set()

        thread = threading.Thread(
            target=worker_module.serve,
            args=(("127.0.0.1", 0),),
            kwargs={"token": token, "once": once, "on_ready": on_ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(timeout=30), "worker never started listening"
        return thread, bound["address"]

    @pytest.mark.timeout(120)
    def test_coordinator_over_external_workers(self, small_collection, churn_log_factory):
        threads_addresses = [self._start_worker(token="hunter2") for _ in range(2)]
        addresses = [f"{host}:{port}" for _thread, (host, port) in threads_addresses]
        log = churn_log_factory(small_collection, 120)
        reference = reference_estimator(small_collection, log)
        config = process_config(
            small_collection.dimension, shards=2, addresses=addresses, token="hunter2"
        )
        with JoinEstimationEngine(config) as engine:
            engine.ingest(log)
            engine.flush()
            ours = engine.estimate(THRESHOLD, seed=21, mode="exact")
            theirs = reference.estimate(THRESHOLD, random_state=21, mode="exact")
            assert ours.value == theirs.value
            infos = engine.backend.index.worker_infos
            assert all(info["address"] is not None for info in infos)
        for thread, _address in threads_addresses:
            thread.join(timeout=30)  # --once: session end stops the worker
            assert not thread.is_alive()

    @pytest.mark.timeout(120)
    def test_worker_side_config_error_tears_the_cluster_down(self, monkeypatch):
        # shard 1's worker refuses its configure: the refusal surfaces as
        # the same library type, the failed worker is reaped, and the
        # half-built coordinator releases shard 0's configured worker too
        configure = ShardWorker.op_configure

        def refuse_shard_1(worker, payload):
            if payload["shard_id"] == 1:
                raise ValidationError("shard 1 refuses its configuration")
            return configure(worker, payload)

        monkeypatch.setattr(ShardWorker, "op_configure", refuse_shard_1)
        threads_addresses = [self._start_worker(once=True) for _ in range(2)]
        addresses = [f"{host}:{port}" for _thread, (host, port) in threads_addresses]
        with pytest.raises(ValidationError, match="refuses its configuration"):
            ClusterCoordinator(
                8, num_shards=2, num_hashes=4, addresses=addresses, request_timeout=10.0
            )
        for thread, _address in threads_addresses:
            thread.join(timeout=30)  # --once: the closed session stops the worker
            assert not thread.is_alive()

    @pytest.mark.timeout(120)
    def test_wrong_token_rejected(self):
        thread, (host, port) = self._start_worker(token="right", once=True)
        with pytest.raises(ClusterError):
            ClusterCoordinator(
                8,
                num_shards=1,
                num_hashes=4,
                addresses=[f"{host}:{port}"],
                token="wrong",
                request_timeout=10.0,
            )
        # the worker survives a bad handshake and still serves a good one
        cluster = ClusterCoordinator(
            8,
            num_shards=1,
            num_hashes=4,
            addresses=[f"{host}:{port}"],
            token="right",
            request_timeout=10.0,
        )
        try:
            cluster.insert(np.arange(8, dtype=float))
            assert cluster.size == 1
        finally:
            cluster.close()
        thread.join(timeout=30)

    @pytest.mark.timeout(120)
    def test_worker_op_error_mid_commit_drains_replies_and_breaks(
        self, monkeypatch, small_collection
    ):
        # shard 0's first insert fails on the worker while shard 1's slice
        # is applied: the commit must read shard 1's reply too (no stale
        # reply left on its connection) and mark the half-applied cluster
        # broken, so the next query says so instead of misreading a reply
        write = ShardWorker.op_write
        shard0_calls = itertools.count()

        def fail_shard0_once(worker, payload):
            if worker.shard_id == 0 and next(shard0_calls) == 0:
                raise ValidationError("injected insert failure")
            return write(worker, payload)

        monkeypatch.setattr(ShardWorker, "op_write", fail_shard0_once)
        threads_addresses = [self._start_worker(once=True) for _ in range(2)]
        addresses = [f"{host}:{port}" for _thread, (host, port) in threads_addresses]
        cluster = ClusterCoordinator(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES,
            random_state=SEED, addresses=addresses, **FAST,
        )
        try:
            batch = cluster.prepare_batch(small_collection.matrix[:40])
            assert set(batch.shard_ids.tolist()) == {0, 1}
            with pytest.raises(ValidationError, match="injected insert failure"):
                cluster.commit_batch(batch)
            assert cluster.broken is not None
            with pytest.raises(ClusterError, match="broken"):
                cluster.cosine_pairs([0, 1], [2, 3])
            # every connection is aligned: a fresh request reads its own reply
            for handle in cluster._handles:
                handle.conn.send("ping")
                assert handle.conn.recv_reply(context="ping")["shard_id"] == handle.shard_id
        finally:
            cluster.close()
        for thread, _address in threads_addresses:
            thread.join(timeout=30)
            assert not thread.is_alive()

    @pytest.mark.timeout(120)
    def test_worker_op_error_mid_migration_breaks_the_cluster(
        self, monkeypatch, small_collection
    ):
        # a shrink to one shard migrates shard 1's buckets, whose row
        # writes fail on the workers after the gathers: rows may now sit
        # on two shards, so the cluster is marked broken and the next
        # estimate says so
        write = ShardWorker.op_write
        migrating = threading.Event()

        def fail_while_migrating(worker, payload):
            if migrating.is_set():
                raise ValidationError("injected migration failure")
            return write(worker, payload)

        monkeypatch.setattr(ShardWorker, "op_write", fail_while_migrating)
        threads_addresses = [self._start_worker(once=True) for _ in range(2)]
        addresses = [f"{host}:{port}" for _thread, (host, port) in threads_addresses]
        cluster = ClusterCoordinator(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES,
            random_state=SEED, addresses=addresses, **FAST,
        )
        try:
            cluster.insert_many(small_collection.matrix[:80])
            estimator = ShardedStreamingEstimator(cluster)
            migrating.set()
            with pytest.raises(ValidationError, match="injected migration failure"):
                rebalance_cluster(cluster, 1)
            assert cluster.broken is not None
            with pytest.raises(ClusterError, match="broken"):
                estimator.estimate(THRESHOLD, random_state=1, mode="exact")
        finally:
            cluster.close()
        for thread, _address in threads_addresses:
            thread.join(timeout=30)
            assert not thread.is_alive()

    @pytest.mark.timeout(120)
    def test_growth_dry_run_over_external_workers(self, small_collection):
        """A dry run plans from the facade's bucket table, so it needs no
        worker beyond the configured ones and changes no shard."""
        threads_addresses = [self._start_worker() for _ in range(2)]
        addresses = [f"{host}:{port}" for _thread, (host, port) in threads_addresses]
        config = process_config(small_collection.dimension, shards=2, addresses=addresses)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            cluster = engine.backend.index
            sizes, opened = cluster.shard_sizes, engine.backend.config
            plan = engine.rebalance(num_shards=4, dry_run=True)
            assert plan.num_shards == 4 and plan.moved_keys > 0
            assert plan.total_keys == cluster.primary_table.num_buckets
            assert cluster.num_shards == 2 and cluster.shard_sizes == sizes
            assert engine.backend.config == opened
            cluster.check_invariants()
        for thread, _address in threads_addresses:
            thread.join(timeout=30)
            assert not thread.is_alive()

    def test_cli_parser_accepts_worker(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "--listen", "127.0.0.1:7070", "--token", "t", "--once"]
        )
        assert args.command == "worker"
        assert args.listen == "127.0.0.1:7070"
        assert args.once


def _row_path_pair(shape, collection, **options):
    """(facade of ``shape``, unsharded index) fed the same rows and deletes."""
    kwargs = dict(num_shards=2, num_hashes=NUM_HASHES, random_state=SEED, **options)
    if shape == "process":
        facade = ClusterCoordinator(collection.dimension, **kwargs, **FAST)
    else:
        facade = ShardedMutableIndex(collection.dimension, **kwargs)
    reference = MutableLSHIndex(collection.dimension, num_hashes=NUM_HASHES, random_state=SEED)
    for index in (facade, reference):
        index.insert_many(collection.matrix[:120])
        for vector_id in range(0, 120, 7):
            index.delete(vector_id)
    return facade, reference


def _close(facade):
    if isinstance(facade, ClusterCoordinator):
        facade.close()


class TestFacadeRowPath:
    """``cosine_pairs`` on both sharded shapes: each owning shard is asked
    once per call, and the cosines equal the unsharded index's bit for bit."""

    @pytest.mark.timeout(120)
    def test_one_gather_rows_per_owning_shard_per_call(self, small_collection):
        registry = MetricsRegistry()
        cluster, _reference = _row_path_pair("process", small_collection, metrics=registry)
        try:
            gathers = registry.counter("cluster_requests_total", op="gather_rows")
            ids = cluster.ids
            owners = np.array([cluster.shard_of(int(i)).shard_id for i in ids])
            both = ids[:40]
            assert set(owners[:40].tolist()) == {0, 1}
            before = gathers.value
            cluster.cosine_pairs(both[:20], both[20:])
            assert gathers.value - before == 2
            only_0 = ids[owners == 0][:10]
            before = gathers.value
            cluster.cosine_pairs(only_0, only_0[::-1])
            assert gathers.value - before == 1
        finally:
            cluster.close()

    @pytest.mark.timeout(240)
    @pytest.mark.parametrize("shape", ["sharded", "process"])
    def test_cosines_match_unsharded_bit_for_bit(self, shape, small_collection):
        facade, reference = _row_path_pair(shape, small_collection)
        try:
            rng = np.random.default_rng(3)

            def check():
                ids = facade.ids
                left, right = rng.choice(ids, 300), rng.choice(ids, 300)
                repeated = np.repeat(ids[:5], 4)
                for pair in ((left, right), (left, left), (repeated, repeated[::-1])):
                    np.testing.assert_array_equal(
                        facade.cosine_pairs(*pair), reference.cosine_pairs(*pair)
                    )
                np.testing.assert_array_equal(
                    facade.to_collection()[0].matrix.toarray(),
                    reference.to_collection()[0].matrix.toarray(),
                )

            check()  # after the deletes
            for num_shards in (4, 3):
                rebalance_cluster(facade, num_shards=num_shards)
                facade.check_invariants()
                check()
        finally:
            _close(facade)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("shape", ["sharded", "process"])
    def test_bad_ids_refused_and_empty_input_empty(self, shape, small_collection):
        facade, _reference = _row_path_pair(shape, small_collection)
        try:
            for bad in (7, -4, 10**6):  # deleted, negative, never inserted
                with pytest.raises(ValidationError, match=f"vector id {bad} is not"):
                    facade.cosine_pairs([1, 2], [3, bad])
            with pytest.raises(ValidationError, match="same length"):
                facade.cosine_pairs([1, 2], [3])
            empty = facade.cosine_pairs([], [])
            assert empty.shape == (0,) and empty.dtype == np.float64
            assert facade.cosine_pairs([1], [1])[0] == pytest.approx(1.0)
        finally:
            _close(facade)


class TestOneDispatchPath:
    """Both sharded shapes reach their shards only through the facade's
    fan-out, with the ops of one table: ``ShardWorker``'s ``op_*`` methods."""

    @staticmethod
    def _record(monkeypatch, endpoint_class):
        """Count every request an endpoint class sends, per op and shard."""
        sent = Counter()
        send_request = endpoint_class.send_request

        def recording(endpoint, op, payload=None):
            sent[op, endpoint.shard_id] += 1
            send_request(endpoint, op, payload)

        monkeypatch.setattr(endpoint_class, "send_request", recording)
        return sent

    @staticmethod
    def _drive(index, collection):
        """Bulk load, churn batches, one rebalance and exact estimates."""
        index.insert_many(collection.matrix[:120])
        with ShardRouter(index, batch_size=16) as router:
            for position in range(120, 180):
                router.insert(collection.row(position))
                if position % 3 == 0:
                    router.delete(position - 110)
        rebalance_cluster(index, num_shards=3)
        estimator = ShardedStreamingEstimator(index)
        return [
            estimator.estimate(THRESHOLD, random_state=seed, mode="exact").value
            for seed in (1, 2)
        ]

    @pytest.mark.timeout(180)
    def test_both_shapes_send_the_same_requests(self, monkeypatch, small_collection):
        in_process = self._record(monkeypatch, ShardWorker)
        over_the_wire = self._record(monkeypatch, WorkerHandle)
        registry = MetricsRegistry()
        shape = dict(num_shards=2, num_hashes=NUM_HASHES, random_state=SEED)
        ours = self._drive(
            ShardedMutableIndex(small_collection.dimension, **shape), small_collection
        )
        cluster = ClusterCoordinator(
            small_collection.dimension, metrics=registry, **shape, **FAST
        )
        try:
            theirs = self._drive(cluster, small_collection)
        finally:
            cluster.close()
        assert ours == theirs
        assert in_process == over_the_wire
        per_op = Counter()
        for (op, _shard_id), count in over_the_wire.items():
            per_op[op] += count
        assert set(per_op) == {"configure", "write", "gather_rows"}
        for op, count in per_op.items():
            assert registry.counter("cluster_requests_total", op=op).value == count

    @pytest.mark.timeout(120)
    def test_every_op_sent_is_in_the_table_and_every_op_is_sent(
        self, monkeypatch, small_collection
    ):
        in_process = self._record(monkeypatch, ShardWorker)
        over_the_wire = self._record(monkeypatch, WorkerHandle)
        index = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=SEED
        )
        self._drive(index, small_collection)
        index.insert(small_collection.row(200))
        index.delete(0)
        ShardedMutableIndex.from_state(index.to_state()).check_invariants()
        with ClusterCoordinator(
            small_collection.dimension, num_shards=1, num_hashes=NUM_HASHES, **FAST
        ) as cluster:
            cluster.stats()
        sent = {op for op, _shard_id in in_process} | {op for op, _shard_id in over_the_wire}
        table = {name[len("op_"):] for name in vars(ShardWorker) if name.startswith("op_")}
        assert sent <= table
        # `ping` is the liveness op tests send to a worker directly
        assert table - sent == {"ping"}

    @pytest.mark.timeout(120)
    def test_worker_ingest_seconds_counts_row_inserts_only(self, small_collection):
        """Each ``WorkerHandle`` sums its worker's reported time for row
        inserts; reads and checks leave it alone, and ``stats`` reports it."""
        with ClusterCoordinator(
            small_collection.dimension, num_shards=2, num_hashes=NUM_HASHES,
            random_state=SEED, **FAST
        ) as cluster:
            assert [handle.worker_ingest_seconds for handle in cluster._handles] == [0.0, 0.0]
            cluster.insert_many(small_collection.matrix[:120])
            ingested = [handle.worker_ingest_seconds for handle in cluster._handles]
            assert all(seconds > 0.0 for seconds in ingested)
            ids = cluster.ids
            cluster.cosine_pairs(ids[:40], ids[40:80])
            cluster.check_invariants()
            assert [handle.worker_ingest_seconds for handle in cluster._handles] == ingested
            rows = cluster.stats()["workers"]
            assert [row["worker_ingest_seconds"] for row in rows] == ingested


class TestBatchedWrites:
    """The router buffers deletes beside inserts: a flush sends one ``write``
    per touched shard, and answers stay those of the per-delete grouping."""

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("shape", ["sharded", "process"])
    def test_mixed_batch_sends_one_write_per_touched_shard(
        self, monkeypatch, shape, small_collection
    ):
        endpoint_class = ShardWorker if shape == "sharded" else WorkerHandle
        sent = TestOneDispatchPath._record(monkeypatch, endpoint_class)
        shape_kwargs = dict(num_shards=2, num_hashes=NUM_HASHES, random_state=SEED)
        index = (
            ShardedMutableIndex(small_collection.dimension, **shape_kwargs)
            if shape == "sharded"
            else ClusterCoordinator(small_collection.dimension, **shape_kwargs, **FAST)
        )
        try:
            index.insert_many(small_collection.matrix[:100])
            sent.clear()
            router = ShardRouter(index, batch_size=256)
            deleted_live = list(range(0, 48, 2))
            for position, victim in enumerate(deleted_live):
                router.insert(small_collection.row(100 + position))
                router.delete(victim)
            router.insert(small_collection.row(200))
            router.delete(100)  # a buffered insert: its row is never sent
            assert router.pending == 50 and not sent
            touched = {int(index._shard_of_id[victim]) for victim in deleted_live}
            assert router.flush() == 50
            touched |= {int(index._shard_of_id[i]) for i in index.ids if i > 100}
            assert sent == Counter({("write", shard_id): 1 for shard_id in touched})
            assert index.size == 100 and 100 not in index
            index.check_invariants()
        finally:
            _close(index)

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("backend", ["sharded", "process"])
    def test_answers_match_the_per_delete_grouping(
        self, backend, small_collection, churn_log_factory
    ):
        """50-event engine batches answer bit for bit as a facade fed
        ``insert_many`` per run of inserts and ``delete`` per delete."""
        dimension = small_collection.dimension
        events = list(churn_log_factory(small_collection, 300, seed=5))
        options = {"num_shards": 2} if backend == "sharded" else {"shards": 2, **FAST}
        engine = JoinEstimationEngine(EngineConfig(
            backend=backend, num_hashes=NUM_HASHES, seed=SEED, dimension=dimension,
            options=options,
        )).open()
        facade = ShardedMutableIndex(
            dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=SEED + 1
        )
        reference = ShardedStreamingEstimator(facade, random_state=SEED + 2)
        try:
            for batch_number, start in enumerate(range(0, len(events), 50)):
                batch = events[start : start + 50]
                engine.ingest(batch)
                run = []
                for event in batch + [None]:
                    if isinstance(event, Insert):
                        run.append(coerce_row(event.vector, dimension))
                        continue
                    if run:
                        facade.insert_many(sparse.vstack(run, format="csr"))
                        run = []
                    if event is not None:
                        facade.delete(event.vector_id)
                for mode in ("auto", "exact"):
                    ours = engine.estimate(THRESHOLD, seed=batch_number, mode=mode)
                    theirs = reference.estimate(
                        THRESHOLD, random_state=batch_number, mode=mode
                    )
                    assert ours.value == theirs.value
                    assert ours.details == theirs.details
        finally:
            engine.close()


class TestShardWorkerOps:
    """Protocol-level tests of the worker dispatch, driven in process.

    These pin the op semantics (and keep the worker code measurable by
    the coverage job, which cannot see child processes).
    """

    @staticmethod
    def _configured_worker():
        worker = ShardWorker()
        stats = worker.handle("configure", {"shard_id": 0, "dimension": 6})
        assert stats == {"size": 0}
        return worker

    @staticmethod
    def _index_state(state):
        """A whole index state holding ``state``'s rows, as format-2 shards had."""
        index = MutableLSHIndex(6, num_hashes=4, random_state=3)
        index.insert_many(state["matrix"], vector_ids=state["ids"])
        return index.to_state()

    @staticmethod
    def _insert(worker, rows, first_id=0):
        csr = sparse.csr_matrix(np.asarray(rows, dtype=float))
        ids = np.arange(first_id, first_id + csr.shape[0], dtype=np.int64)
        return worker.handle("write", {"ids": ids, "csr": csr})

    def test_mutation_replies_carry_the_row_count(self):
        worker = self._configured_worker()
        reply = self._insert(worker, np.eye(6)[:4] + 0.1)
        # timing lives in the reply meta envelope (serve_connection stamps
        # meta["seconds"]); payloads stay data-only
        assert reply == {"size": 4}
        deleted = worker.handle("write", {"drop": [2, 0]})
        assert deleted == {"size": 2}
        ping = worker.handle("ping", {})
        assert ping["shard_id"] == 0 and ping["size"] == 2

    def test_bad_delete_refused_before_mutation(self):
        """A delete naming one id the shard does not hold (or one id twice)
        is refused whole: no row is removed."""
        worker = self._configured_worker()
        self._insert(worker, np.eye(6)[:3] + 0.1)
        for ids in ([0, 99], [1, 1]):
            with pytest.raises(ValidationError):
                worker.handle("write", {"drop": ids})
        assert worker.handle("check", {})["size"] == 3
        assert worker.handle("ids", {})["ids"].tolist() == [0, 1, 2]

    def test_rows_outside_the_dimension_refused(self):
        """``write`` and ``restore`` refuse rows wider than the
        shard's dimension (or with a column outside it) and leave the
        served store unchanged."""
        worker = self._configured_worker()
        self._insert(worker, np.eye(6)[:3] + 0.1)
        before = worker.handle("snapshot", {})["state"]
        wide = sparse.csr_matrix(([1.0], [9], [0, 1]), shape=(1, 10))
        out_of_range = sparse.csr_matrix(([1.0], [9], [0, 1]), shape=(1, 6))
        for csr in (wide, out_of_range):
            with pytest.raises(ValidationError):
                worker.handle("write", {"ids": np.asarray([3]), "csr": csr})
            with pytest.raises(ValidationError):
                worker.handle("restore", {"state": {"dimension": 6, "ids": [3], "matrix": csr}})
        assert worker.handle("check", {})["size"] == 3
        after = worker.handle("snapshot", {})["state"]
        assert after["ids"] == before["ids"] == [0, 1, 2]
        np.testing.assert_array_equal(after["matrix"].toarray(), before["matrix"].toarray())

    def test_ids_and_gather_rows(self):
        worker = self._configured_worker()
        rows = [[1.0, 0, 0, 0, 0, 0]] * 3 + [[0, 1.0, 0, 0, 0, 0]]
        self._insert(worker, rows, first_id=5)
        assert worker.handle("ids", {})["ids"].tolist() == [5, 6, 7, 8]
        data, indices, indptr = worker.handle(
            "gather_rows", {"ids": np.asarray([8, 5]), "normalized": True}
        )["parts"]
        gathered = sparse.csr_matrix((data, indices, indptr), shape=(2, 6))
        assert gathered.toarray().tolist() == [[0, 1.0, 0, 0, 0, 0], [1.0, 0, 0, 0, 0, 0]]

    def test_snapshot_restore_and_removed_estimator_ops(self):
        worker = self._configured_worker()
        self._insert(worker, np.eye(6) + 0.2)
        state = worker.handle("snapshot", {})["state"]
        assert set(state) == {"dimension", "ids", "matrix"}
        revived = ShardWorker()
        stats = revived.handle("restore", {"state": state, "shard_id": 1})
        assert stats["size"] == 6 and revived.shard_id == 1
        revived.handle("check", {})
        # a whole index state (tables, family) predates row-only shards
        with pytest.raises(ValidationError, match="row-store state"):
            revived.handle("restore", {"state": self._index_state(state)})
        for op in (
            "reservoir", "account_migration", "close_estimator", "sample_pairs",
            "bucket_members",
        ):
            with pytest.raises(ClusterError, match="unknown worker op"):
                revived.handle(op, {"stratum": "l"})
        assert revived.handle("check", {})["size"] == 6

    def test_unconfigured_and_unknown_ops_fail_cleanly(self):
        worker = ShardWorker()
        with pytest.raises(ClusterError):
            worker.handle("stats_snapshot", {})  # unknown op
        with pytest.raises(ClusterError):
            worker.handle("snapshot", {})  # not configured yet
        self._configured_worker()  # sanity: configure path works
        worker2 = self._configured_worker()
        with pytest.raises(ClusterError):
            worker2.handle("configure", {"shard_id": 0})  # double configure

    def test_endpoint_raises_op_errors_from_send_request(self):
        """In process an op runs when it is sent: its error raises there,
        and the next request reads its own reply."""
        worker = self._configured_worker()
        self._insert(worker, np.eye(6)[:2] + 0.1)
        with pytest.raises(ClusterError, match="unknown worker op"):
            worker.send_request("bucket_members", {})
        with pytest.raises(ValidationError):
            worker.send_request("write", {"drop": [99]})
        worker.send_request("ids")
        assert worker.recv_reply("ids")["ids"].tolist() == [0, 1]

    @pytest.mark.timeout(30)
    def test_each_thread_reads_its_own_reply(self):
        """Concurrent readers share one in-process endpoint: both send
        before either reads, and each reads the reply to its own request."""
        worker = self._configured_worker()
        self._insert(worker, np.eye(6)[:2])
        both_sent = threading.Barrier(2, timeout=10)
        rows = {}

        def gather(vector_id):
            worker.send_request("gather_rows", {"ids": np.asarray([vector_id])})
            both_sent.wait()
            data, indices, indptr = worker.recv_reply("gather_rows")["parts"]
            row = sparse.csr_matrix((data, indices, indptr), shape=(1, 6))
            rows[vector_id] = row.toarray()[0].tolist()

        threads = [threading.Thread(target=gather, args=(vector_id,)) for vector_id in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert rows == {0: np.eye(6)[0].tolist(), 1: np.eye(6)[1].tolist()}

    @pytest.mark.timeout(60)
    @pytest.mark.parametrize(
        "garbage",
        ["not-a-mapping", "no-state", "unknown-key", "short-ids", "index-state"],
    )
    def test_garbage_restore_replies_error_and_keeps_serving(self, garbage):
        import socket as socket_module

        from repro.cluster.transport import Connection

        worker = self._configured_worker()
        self._insert(worker, np.eye(6) + 0.2)
        state = worker.handle("snapshot", {})["state"]
        payload = {
            "not-a-mapping": {"state": [("format", 1)]},
            "no-state": {},
            "unknown-key": {"state": {**state, "kind": "sharded"}},
            "short-ids": {"state": {**state, "ids": state["ids"][:-1]}},
            "index-state": {"state": self._index_state(state)},
        }[garbage]
        coordinator_side, worker_side = socket_module.socketpair()
        conn = Connection(coordinator_side, timeout=30.0)
        served = threading.Thread(
            target=worker_module.serve_connection,
            args=(Connection(worker_side, timeout=None), worker),
        )
        served.start()
        try:
            conn.send("restore", payload)
            status, body, _meta = conn.recv()
            assert status == "error" and body["type"] == "ValidationError"
            # the worker keeps serving the shard it held before the refusal
            conn.send("ping", {})
            status, body, _meta = conn.recv()
            assert status == "ok" and body["size"] == 6
            conn.send("shutdown", {})
            assert conn.recv()[0] == "ok"
        finally:
            served.join(timeout=10)
            conn.close()
            worker_side.close()
        assert not served.is_alive()


class TestTransportFraming:
    def test_round_trip_and_error_descriptions(self):
        import socket as socket_module

        from repro.cluster.transport import (
            Connection,
            describe_error,
            raise_remote_error,
            recv_message,
            send_message,
        )

        left, right = socket_module.socketpair()
        try:
            send_message(left, "ping", {"value": np.arange(3)})
            op, payload, meta = recv_message(right)
            assert op == "ping"
            assert meta == {}
            np.testing.assert_array_equal(payload["value"], np.arange(3))
            conn = Connection(left, timeout=5.0)
            conn.send("ok", {"x": 1})
            assert recv_message(right) == ("ok", {"x": 1}, {})
            conn.close()
            conn.close()  # idempotent
        finally:
            for sock in (left, right):
                try:
                    sock.close()
                except OSError:
                    pass
        # library errors travel as objects and re-raise as themselves
        payload = describe_error(ValidationError("bad value"))
        with pytest.raises(ValidationError, match="bad value"):
            raise_remote_error(payload, context="test")
        # third-party errors re-raise as ClusterError with the traceback
        payload = describe_error(RuntimeError("boom"))
        with pytest.raises(ClusterError, match="boom"):
            raise_remote_error(payload, context="test")

    def test_closed_peer_raises_connection_closed(self):
        import socket as socket_module

        from repro.cluster.transport import Connection, ConnectionClosed

        left, right = socket_module.socketpair()
        right.close()
        conn = Connection(left, timeout=5.0)
        with pytest.raises(ConnectionClosed):
            conn.recv()
        conn.close()


class TestClusterPropertyBased:
    """Acceptance sweep: any event sequence replayed through a process
    cluster serves the exact-mode estimate of an unsharded estimator,
    bit for bit, for the same seed."""

    POOL_SEED = 31

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestClusterPropertyBased.POOL_SEED)
        dense = (rng.random((24, 8)) < 0.4) * rng.random((24, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @pytest.mark.timeout(600)
    @settings(max_examples=6, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
        st.sampled_from([1, 2]),
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
        cluster = ClusterCoordinator(
            pool.dimension,
            num_shards=num_shards,
            num_hashes=6,
            random_state=13,
            **FAST,
        )
        try:
            with ShardRouter(cluster, batch_size=7) as router:
                router.replay(log)
            cluster.check_invariants()
            assert cluster.size == unsharded.size
            assert cluster.num_collision_pairs == unsharded.num_collision_pairs
            assert cluster.num_non_collision_pairs == unsharded.num_non_collision_pairs
            if cluster.size == 0:
                assert ShardedStreamingEstimator(cluster).estimate(0.5).value == 0.0
                return
            ours = ShardedStreamingEstimator(cluster).estimate(
                0.5, random_state=1, mode="exact"
            )
            theirs = StreamingEstimator(unsharded, random_state=5).estimate(
                0.5, random_state=1, mode="exact"
            )
            assert ours.value == theirs.value
        except InsufficientSampleError:
            with pytest.raises(InsufficientSampleError):
                StreamingEstimator(unsharded, random_state=5).estimate(
                    0.5, random_state=1, mode="exact"
                )
        finally:
            cluster.close()
