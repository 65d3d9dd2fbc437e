"""Tests for repro.serve: generations, server, client, drain semantics."""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.transport import PROTOCOL_VERSION, Connection, parse_address
from repro.engine import EngineConfig, EstimateRequest, JoinEstimationEngine
from repro.errors import (
    ClusterError,
    ServeError,
    ServerBusyError,
    StrandedWritesError,
    ValidationError,
)
from repro.obs import get_tracer, trace
from repro.serve import EstimationServer, GenerationManager, ServeClient
from repro.serve.generations import BatchResult
from repro.shard import PendingWrites
from repro.streaming import ChangeLog, Delete, Insert
from repro.vectors import VectorCollection

DIMENSION = 16
THRESHOLD = 0.8


def _config(**overrides) -> EngineConfig:
    base = dict(backend="streaming", num_hashes=10, seed=23, dimension=DIMENSION)
    base.update(overrides)
    return EngineConfig(**base)


def _events(count: int, seed: int = 0, dimension: int = DIMENSION):
    rng = np.random.default_rng(seed)
    rows = (rng.random((count, dimension)) < 0.4) * rng.random((count, dimension))
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return [Insert(row) for row in rows]


def _direct_engine(events, config=None) -> JoinEstimationEngine:
    engine = JoinEstimationEngine(config or _config()).open()
    for event in events:
        engine.ingest(event)
    engine.flush()
    return engine


# ----------------------------------------------------------------------
# GenerationManager: one engine behind a readers–writer gate
# ----------------------------------------------------------------------
class TestGenerationManager:
    def test_commit_publishes_and_applies_once(self):
        manager = GenerationManager(_config())
        applied = manager.metrics.counter("engine_ingested_events_total")
        try:
            events = _events(40)
            results = manager.commit([events[:25], events[25:]])
            assert [r.applied for r in results] == [25, 15]
            assert all(r.error is None for r in results)
            assert manager.epoch == 1
            with manager.read() as generation:
                assert generation.epoch == 1
                assert generation.engine.backend.size == 40
            assert applied.value == 40
            more = _events(10, seed=1)
            manager.commit([more])
            assert manager.epoch == 2
            with manager.read() as generation:
                assert generation.engine.backend.size == 50
            # every event reaches the one engine exactly once
            assert applied.value == 50
        finally:
            manager.close()

    @pytest.mark.timeout(60)
    def test_commit_waits_for_readers_inside(self):
        """A commit asked for while a reader is inside ``read()`` applies
        nothing and keeps the epoch until that reader leaves."""
        manager = GenerationManager(_config())
        try:
            manager.commit([_events(10)])
            inside = threading.Event()
            release = threading.Event()
            seen: list = []

            def reader():
                with manager.read() as generation:
                    inside.set()
                    release.wait(timeout=30.0)
                    seen.append((generation.epoch, generation.engine.backend.size))

            reader_thread = threading.Thread(target=reader)
            reader_thread.start()
            assert inside.wait(timeout=10.0)
            writer_thread = threading.Thread(
                target=manager.commit, args=([_events(5, seed=2)],)
            )
            writer_thread.start()
            time.sleep(0.3)
            assert writer_thread.is_alive(), "the commit ran past a reader inside read()"
            assert manager.epoch == 1
            release.set()
            reader_thread.join(timeout=10.0)
            writer_thread.join(timeout=10.0)
            assert not reader_thread.is_alive() and not writer_thread.is_alive()
            # the reader's view never moved under it
            assert seen == [(1, 10)]
            assert manager.epoch == 2
            assert manager.reader_count == 0
        finally:
            manager.close()

    def test_rejected_source_fails_its_batch_alone(self):
        manager = GenerationManager(_config())
        try:
            good, bad = _events(4), Delete(10**6)  # deleting an unknown id
            results = manager.commit([good[:2], [bad], good[2:]])
            assert [type(r) for r in results] == [BatchResult] * 3
            assert results[0].error is None and results[0].applied == 2
            assert results[1].error is not None
            assert results[2].error is None and results[2].applied == 2
            assert manager.broken is None  # validation failures never break
            with manager.read() as generation:
                assert generation.engine.backend.size == 4
        finally:
            manager.close()

    def test_read_after_close_raises(self):
        manager = GenerationManager(_config())
        manager.close()
        with pytest.raises(ServeError, match="closed"):
            with manager.read():
                pass  # pragma: no cover

    def test_failed_commit_breaks_manager_and_close_drains(self):
        """Satellite: drain_pending() before close surfaces stranded rows."""
        manager = GenerationManager(
            _config(backend="sharded", options={"num_shards": 2, "batch_size": 1000})
        )

        def explode(*_args, **_kwargs):
            raise RuntimeError("transport failure mid-commit")

        # blow up the shard-level commit so flush fails after the rows
        # were buffered in the router
        for shard in manager._engine.backend._index.shards:
            shard.store.add_many = explode
        with pytest.raises(RuntimeError, match="mid-commit"):
            manager.commit([_events(6)])
        assert manager.broken is not None
        assert manager.epoch == 0
        # the gate reopened: reads get in, and no failed row was applied
        with manager.read() as generation:
            assert generation.engine.backend.describe()["size"] == 0
        # further commits are refused rather than piling onto the engine
        with pytest.raises(ServeError, match="previous commit failed"):
            manager.commit([_events(1, seed=3)])
        with pytest.raises(StrandedWritesError) as excinfo:
            manager.close()
        stranded = excinfo.value.pending_rows
        assert len(stranded) == 6
        assert all(row.shape == (1, DIMENSION) for row in stranded)
        # the recovered rows replay onto a fresh deployment
        fresh = JoinEstimationEngine(_config()).open()
        for row in stranded:
            fresh.ingest(Insert(np.asarray(row.todense()).ravel()))
        assert fresh.backend.size == 6
        fresh.close()


    def test_close_surfaces_stranded_deletes(self):
        """A failed commit strands the buffered deletes beside the rows:
        close raises with both, each in arrival order."""
        manager = GenerationManager(
            _config(backend="sharded", options={"num_shards": 2, "batch_size": 1000})
        )
        manager.commit([_events(4)])

        def explode(*_args, **_kwargs):
            raise RuntimeError("transport failure mid-commit")

        for shard in manager._engine.backend._index.shards:
            shard.store.add_many = explode
            shard.store.remove_many = explode
        with pytest.raises(RuntimeError, match="mid-commit"):
            manager.commit([[Delete(2), *_events(3, seed=5), Delete(0), Delete(4)]])
        with pytest.raises(StrandedWritesError) as excinfo:
            manager.close()
        assert len(excinfo.value.pending_rows) == 3
        assert excinfo.value.pending_deletes == [2, 0, 4]


# ----------------------------------------------------------------------
# engine-level hooks the serving layer depends on
# ----------------------------------------------------------------------
class TestEngineServeHooks:
    def test_drain_pending_default_is_empty(self):
        with JoinEstimationEngine(_config()) as engine:
            engine.ingest(_events(3))
            assert engine.drain_pending() == PendingWrites([], [])

    def test_sharded_drain_pending_recovers_buffered_rows(self):
        config = _config(backend="sharded", options={"num_shards": 2, "batch_size": 1000})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(_events(4))  # buffered in the router, not flushed
            rows = engine.drain_pending().rows
            assert len(rows) == 4
            assert engine.drain_pending() == PendingWrites([], [])

    def test_quiesce_makes_auto_estimates_read_only(self):
        with JoinEstimationEngine(_config()) as engine:
            engine.ingest(_events(60))
            engine.flush()
            engine.quiesce()
            estimator = engine.backend._estimator
            rng_state_before = estimator._rng.bit_generator.state
            first = engine.estimate(THRESHOLD, seed=5, mode="auto")
            assert estimator._rng.bit_generator.state == rng_state_before, (
                "auto estimate consumed the maintenance rng after quiesce"
            )
            again = engine.estimate(THRESHOLD, seed=5, mode="auto")
            assert first.value == again.value

    @pytest.mark.parametrize(
        "backend, options", [("streaming", {}), ("sharded", {"num_shards": 2})]
    )
    def test_quiesced_reads_leave_a_degraded_reservoir_alone(self, backend, options):
        # near-duplicate corpus: one pair in twenty is in stratum L, so
        # SampleL's rejection loop cannot fill the L reservoir (it degrades)
        # while an estimate's smaller exact SampleL draws still succeed
        rows = np.zeros((41, DIMENSION))
        rows[:40, 0] = 1.0
        rows[40, 1] = 1.0
        with JoinEstimationEngine(_config(backend=backend, options=options)) as engine:
            engine.ingest([Insert(row) for row in rows])
            engine.flush()
            engine.quiesce()
            estimator = engine.backend._estimator
            assert estimator._reservoir_l.degraded
            rng_state_before = estimator._rng.bit_generator.state
            first = engine.estimate(THRESHOLD, seed=5, mode="auto")
            again = engine.estimate(THRESHOLD, seed=5, mode="auto")
            assert estimator._rng.bit_generator.state == rng_state_before, (
                "auto estimate retried the degraded reservoir after quiesce"
            )
            assert first.details["source_l"] == "exact"
            assert first.value == again.value


# ----------------------------------------------------------------------
# the server and client, end to end
# ----------------------------------------------------------------------
@pytest.fixture
def server():
    srv = EstimationServer(_config(), queue_depth=32, max_estimates=8).start()
    yield srv
    srv.shutdown()


class TestServerRoundtrip:
    @pytest.mark.timeout(60)
    def test_ingest_estimate_flush_stats_ping(self, server):
        events = _events(50)
        with ServeClient(server.address) as client:
            assert client.server_backend == "streaming"
            assert client.ingest(events) == 50
            assert client.last_epoch == 1
            result = client.estimate(THRESHOLD, seed=3, mode="exact")
            assert result.value >= 0.0
            assert result.provenance.seed == 3
            assert result.provenance.backend == "streaming"
            assert client.flush() == 2
            described = client.describe()
            assert described["describe"]["size"] == 50
            stats = client.stats()
            assert stats["server"]["epoch"] == 2
            assert stats["server"]["queue_capacity"] == 32
            assert stats["server"]["broken"] is False
            assert stats["engine"]["backend"] == "streaming"
            pong = client.ping()
            assert pong["pid"] == os.getpid()

    @pytest.mark.timeout(60)
    def test_client_sends_exactly_the_server_op_table(self, server, monkeypatch):
        """Every public client method sends an op of the server's declared
        table, and every op in that table has a client method."""
        sent = set()
        request = ServeClient._request

        def recording(client, op, *args, **kwargs):
            sent.add(op)
            return request(client, op, *args, **kwargs)

        monkeypatch.setattr(ServeClient, "_request", recording)
        calls = {
            "ingest": lambda client: client.ingest(_events(5)),
            "flush": lambda client: client.flush(),
            "estimate": lambda client: client.estimate(THRESHOLD, seed=1, mode="exact"),
            "describe": lambda client: client.describe(),
            "stats": lambda client: client.stats(),
            "ping": lambda client: client.ping(),
        }
        public = {
            name for name, member in vars(ServeClient).items()
            if callable(member) and not name.startswith("_")
        }
        assert public - {"close"} == set(calls)
        with ServeClient(server.address) as client:
            for call in calls.values():
                call(client)
        assert sent == set(EstimationServer._HANDLERS)

    @pytest.mark.timeout(60)
    def test_acknowledged_writes_are_immediately_visible(self, server):
        with ServeClient(server.address) as writer, ServeClient(server.address) as reader:
            writer.ingest(_events(30))
            # no flush: the ingest ack means the epoch is already published
            assert reader.describe()["describe"]["size"] == 30

    @pytest.mark.timeout(60)
    def test_single_event_and_collection_ingest(self, server):
        rng = np.random.default_rng(8)
        dense = (rng.random((12, DIMENSION)) < 0.5) * rng.random((12, DIMENSION))
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        with ServeClient(server.address) as client:
            assert client.ingest(Insert(dense[0])) == 1
            assert client.ingest(VectorCollection.from_dense(dense[1:])) == 11
            assert client.describe()["describe"]["size"] == 12

    @pytest.mark.timeout(60)
    def test_rejected_event_reports_error_without_poisoning(self, server):
        with ServeClient(server.address) as client:
            client.ingest(_events(5))
            with pytest.raises(ValidationError):
                client.ingest(Delete(10**6))
            # the server is not broken: further writes and reads succeed
            assert client.ingest(_events(3, seed=9)) == 3
            assert client.describe()["describe"]["size"] == 8

    @pytest.mark.timeout(60)
    def test_request_scoped_spans_ride_the_reply(self, server):
        with ServeClient(server.address) as client:
            client.ingest(_events(20))
            tracer = get_tracer()
            tracer.drain()
            with trace("test.root") as root:
                client.estimate(THRESHOLD, seed=1, mode="exact")
            spans = tracer.drain()
            names = {span.name for span in spans if span.trace_id == root.trace_id}
            assert "serve.estimate" in names


class TestConcurrentReaders:
    @pytest.mark.timeout(120)
    def test_concurrent_estimates_bit_identical_to_direct_engine(self, server):
        events = _events(200)
        with ServeClient(server.address) as client:
            client.ingest(events)
        direct = _direct_engine(events)
        expected = {
            seed: direct.estimate(EstimateRequest(THRESHOLD, seed=seed, mode="exact")).value
            for seed in range(8)
        }
        direct.close()
        answers: dict = {}
        errors: list = []

        def reader(seed: int) -> None:
            try:
                with ServeClient(server.address) as client:
                    for _ in range(3):
                        result = client.estimate(THRESHOLD, seed=seed, mode="exact")
                        assert result.provenance.seed == seed
                        answers.setdefault(seed, set()).add(result.value)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=reader, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for seed, values in answers.items():
            assert values == {expected[seed]}, (
                f"seed {seed}: concurrent answers {values} != direct "
                f"{expected[seed]}"
            )

    @pytest.mark.timeout(120)
    def test_reads_never_see_a_partial_batch(self):
        """One writer ingests 20 batches of 7 events while 3 readers
        describe and estimate: every size a reader sees is a batch
        boundary.  A router batch of 3 makes the sharded engine apply
        each 7-event batch in several flushes, so a read let in
        mid-commit would see a size that is not a multiple of 7."""
        config = _config(backend="sharded", options={"num_shards": 2, "batch_size": 3})
        server = EstimationServer(config, max_estimates=8).start()
        batches = [_events(7, seed=seed) for seed in range(20)]
        sizes: list = []
        errors: list = []
        writing = threading.Event()
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with ServeClient(server.address) as client:
                client.ingest(batches[0])  # exact estimates need a non-empty index

            def writer() -> None:
                try:
                    with ServeClient(server.address) as client:
                        for batch in batches[1:]:
                            client.ingest(batch)
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)
                finally:
                    writing.set()

            def reader(seed: int) -> None:
                try:
                    with ServeClient(server.address) as client:
                        while not writing.is_set():
                            sizes.append(client.describe()["describe"]["size"])
                            result = client.estimate(THRESHOLD, seed=seed, mode="exact")
                            sizes.append(result.details["n"])
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=writer)]
            threads += [threading.Thread(target=reader, args=(seed,)) for seed in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=90)
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert sizes
            assert all(size % 7 == 0 for size in sizes), sorted(set(sizes))
            with ServeClient(server.address) as client:
                assert client.describe()["describe"]["size"] == 7 * 20
        finally:
            sys.setswitchinterval(switch_interval)
            server.shutdown()

    @pytest.mark.timeout(120)
    def test_auto_mode_is_stable_under_concurrency(self, server):
        with ServeClient(server.address) as client:
            client.ingest(_events(150))
        values = set()
        errors: list = []

        def reader() -> None:
            try:
                with ServeClient(server.address) as client:
                    for _ in range(5):
                        values.add(client.estimate(THRESHOLD, seed=7, mode="auto").value)
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(values) == 1  # same seed, same epoch → same bits


class TestBackpressure:
    @pytest.mark.timeout(60)
    def test_estimate_pool_exhaustion_answers_busy(self):
        server = EstimationServer(_config(), max_estimates=2, retry_after=0.01).start()
        try:
            with ServeClient(server.address) as client:
                client.ingest(_events(20))
                for _ in range(2):
                    assert server._estimate_slots.acquire(blocking=False)
                with pytest.raises(ServerBusyError) as excinfo:
                    client.estimate(THRESHOLD, retries=0)
                assert excinfo.value.retry_after == pytest.approx(0.01)
                for _ in range(2):
                    server._estimate_slots.release()
                assert client.estimate(THRESHOLD, seed=1).value >= 0.0
        finally:
            server.shutdown()

    @pytest.mark.timeout(60)
    def test_client_retries_through_transient_busy(self):
        server = EstimationServer(_config(), max_estimates=1, retry_after=0.02).start()
        try:
            with ServeClient(server.address) as client:
                client.ingest(_events(20))
                assert server._estimate_slots.acquire(blocking=False)
                timer = threading.Timer(0.2, server._estimate_slots.release)
                timer.start()
                # retries x retry_after comfortably covers the 0.2s hold
                assert client.estimate(THRESHOLD, seed=1, retries=50).value >= 0.0
                timer.join()
        finally:
            server.shutdown()

    @pytest.mark.timeout(60)
    def test_full_write_queue_answers_busy(self, monkeypatch):
        server = EstimationServer(_config(), queue_depth=1, retry_after=0.01).start()
        try:
            gate = threading.Event()
            real_commit = server._generations.commit

            def gated_commit(batches):
                gate.wait(timeout=30.0)
                return real_commit(batches)

            monkeypatch.setattr(server._generations, "commit", gated_commit)
            outcomes: dict = {}

            def write(name: str, seed: int) -> None:
                with ServeClient(server.address) as client:
                    outcomes[name] = client.ingest(_events(2, seed=seed))

            first = threading.Thread(target=write, args=("first", 1))
            first.start()  # writer thread picks this up and parks on the gate
            time.sleep(0.2)
            second = threading.Thread(target=write, args=("second", 2))
            second.start()  # sits in the queue, filling it
            time.sleep(0.2)
            with ServeClient(server.address) as client:
                with pytest.raises(ServerBusyError) as excinfo:
                    client.ingest(_events(2, seed=3), retries=0)
            assert excinfo.value.retry_after > 0
            gate.set()
            first.join(timeout=30)
            second.join(timeout=30)
            assert outcomes == {"first": 2, "second": 2}
        finally:
            gate.set()
            server.shutdown()

    @pytest.mark.timeout(60)
    def test_draining_server_answers_busy(self):
        server = EstimationServer(_config()).start()
        try:
            with ServeClient(server.address) as client:
                client.ingest(_events(5))
                server._stopping.set()  # shutdown began; connection still open
                with pytest.raises(ServerBusyError) as excinfo:
                    client.estimate(THRESHOLD, retries=0)
                assert "draining" in str(excinfo.value)
                with pytest.raises(ServerBusyError):
                    client.ingest(_events(2, seed=4), retries=0)
        finally:
            server.shutdown()


class TestHandshake:
    @pytest.mark.timeout(60)
    def test_wrong_token_rejected(self):
        server = EstimationServer(_config(), token="s3cret").start()
        try:
            with pytest.raises(ClusterError, match="token"):
                ServeClient(server.address, token="wrong")
            with pytest.raises(ClusterError, match="token"):
                ServeClient(server.address)
            with ServeClient(server.address, token="s3cret") as client:
                assert client.ping()["pid"] == os.getpid()
        finally:
            server.shutdown()

    @pytest.mark.timeout(60)
    def test_protocol_mismatch_rejected(self):
        server = EstimationServer(_config()).start()
        try:
            conn = Connection(socket.create_connection(server.address, timeout=10))
            try:
                with pytest.raises(ClusterError, match="protocol"):
                    conn.request("hello", {"protocol": PROTOCOL_VERSION + 1})
            finally:
                conn.close()
        finally:
            server.shutdown()


class TestServerDrain:
    @pytest.mark.timeout(60)
    def test_idle_shutdown_wakes_the_acceptor(self):
        """Shutdown must not wait out the acceptor's join timeout."""
        server = EstimationServer(_config()).start()
        started = time.monotonic()
        server.shutdown()
        assert time.monotonic() - started < 2.0
        assert not server._acceptor.is_alive()

    @pytest.mark.timeout(60)
    def test_shutdown_surfaces_stranded_rows_after_failed_commit(self):
        """Satellite: the server drains before engine close on shutdown."""
        config = _config(backend="sharded", options={"num_shards": 2, "batch_size": 1000})
        server = EstimationServer(config).start()

        def explode(*_args, **_kwargs):
            raise RuntimeError("transport failure mid-commit")

        for shard in server._generations._engine.backend._index.shards:
            shard.store.add_many = explode
        with ServeClient(server.address) as client:
            with pytest.raises(ClusterError, match="mid-commit"):
                client.ingest(_events(5))
            # the server stays up: estimates are refused, stats answer
            with pytest.raises(ServeError, match="estimates are refused"):
                client.estimate(THRESHOLD, seed=1, mode="exact")
            assert client.stats()["server"]["broken"] is True
            assert client.describe()["describe"]["size"] == 0
            with pytest.raises(ServeError):
                client.ingest(_events(2, seed=4))
        with pytest.raises(StrandedWritesError) as excinfo:
            server.shutdown()
        assert len(excinfo.value.pending_rows) == 5
        assert len(server.stranded_rows) == 5
        server.shutdown()  # idempotent after the drain

    @pytest.mark.timeout(120)
    def test_sigterm_drains_cleanly(self, tmp_path):
        """Satellite: SIGTERM → graceful drain → exit 0, via the CLI."""
        config_path = tmp_path / "engine.json"
        config_path.write_text(
            '{"backend": "streaming", "num_hashes": 10, "seed": 23, "dimension": 16}'
        )
        src_root = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_root) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--config", str(config_path),
             "--listen", "127.0.0.1:0"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            match = re.match(r"serving on ([\d.]+):(\d+)", line)
            assert match, f"no readiness line, got {line!r}"
            address = (match.group(1), int(match.group(2)))
            with ServeClient(address) as client:
                assert client.ingest(_events(30)) == 30
                value = client.estimate(THRESHOLD, seed=2, mode="exact").value
            direct = _direct_engine(_events(30))
            expected = direct.estimate(
                EstimateRequest(THRESHOLD, seed=2, mode="exact")
            ).value
            direct.close()
            assert value == expected
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
            assert proc.returncode == 0, f"daemon exited {proc.returncode}: {out}"
            assert "drained cleanly" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


class TestProcessClusterFront:
    @pytest.mark.timeout(300)
    def test_server_fronts_a_process_cluster(self):
        """The daemon can wrap the multi-process backend transparently."""
        dimension = 12
        config = EngineConfig(
            backend="process", num_hashes=8, seed=31, dimension=dimension,
            options={"num_shards": 2},
        )
        events = _events(40, seed=4, dimension=dimension)
        server = EstimationServer(config, max_estimates=4).start()
        try:
            with ServeClient(server.address) as client:
                assert client.server_backend == "process"
                assert client.ingest(events) == 40
                expected = client.estimate(THRESHOLD, seed=6, mode="exact").value
            # process-backed reads are serialised (CONCURRENT_READS is
            # False) but stay correct and bit-stable under threads
            values = set()
            errors: list = []

            def reader() -> None:
                try:
                    with ServeClient(server.address) as client:
                        values.add(
                            client.estimate(THRESHOLD, seed=6, mode="exact").value
                        )
                except Exception as error:  # noqa: BLE001 - surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=reader) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            assert values == {expected}
        finally:
            server.shutdown()
        # PR 5's guarantee carries over the serve boundary: exact-mode
        # process-cluster estimates are bit-identical to unsharded
        direct = _direct_engine(
            events,
            EngineConfig(backend="streaming", num_hashes=8, seed=31, dimension=dimension),
        )
        assert direct.estimate(EstimateRequest(THRESHOLD, seed=6, mode="exact")).value == expected
        direct.close()


class TestInterleavedIngestProperty:
    POOL_SEED = 77

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestInterleavedIngestProperty.POOL_SEED)
        dense = (rng.random((24, 8)) < 0.4) * rng.random((24, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=10, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=30),
        st.integers(min_value=1, max_value=7),
    )
    def test_interleaved_serve_ingest_equals_batch_ingest(self, ops, chunk_size):
        """Hypothesis property: chunked serve-side ingest == one batch."""
        pool = self._pool()
        log = ChangeLog()
        live: list = []
        next_id = 0
        for op in ops:
            if live and op % 3 == 0:
                log.append(Delete(live.pop(op % len(live))))
            else:
                log.append(Insert(pool.row_dict(op % pool.size)))
                live.append(next_id)
                next_id += 1
        config = EngineConfig(
            backend="streaming", num_hashes=6, seed=13, dimension=pool.dimension
        )
        events = list(log)
        server = EstimationServer(config, epoch_events=5).start()
        try:
            with ServeClient(server.address) as client:
                for start in range(0, len(events), chunk_size):
                    client.ingest(events[start:start + chunk_size])
                size = client.describe()["describe"]["size"]
                mode = "exact" if size > 0 else "auto"
                served = client.estimate(0.5, seed=1, mode=mode)
        finally:
            server.shutdown()
        direct = _direct_engine(events, config)
        assert direct.backend.size == size
        if size > 0:
            expected = direct.estimate(EstimateRequest(0.5, seed=1, mode="exact"))
            assert served.value == expected.value
        else:
            assert served.value == 0.0
        direct.close()


class TestServerValidation:
    def test_constructor_rejects_bad_bounds(self):
        with pytest.raises(ValidationError):
            EstimationServer(_config(), queue_depth=0)
        with pytest.raises(ValidationError):
            EstimationServer(_config(), max_estimates=0)
        with pytest.raises(ValidationError):
            EstimationServer(_config(), epoch_events=0)

    def test_parse_address_ephemeral_opt_in(self):
        assert parse_address("127.0.0.1:0", allow_ephemeral=True) == ("127.0.0.1", 0)
        with pytest.raises(ValidationError):
            parse_address("127.0.0.1:0")

    @pytest.mark.timeout(60)
    def test_unknown_op_and_bad_payload_reported(self):
        server = EstimationServer(_config()).start()
        try:
            with ServeClient(server.address) as client:
                with pytest.raises(ClusterError, match="unknown op"):
                    client._request("nonsense")
                with pytest.raises(ValidationError, match="unknown ingest field"):
                    client._request("ingest", {"bogus": 1})
                with pytest.raises(ValidationError):
                    client.ingest([])
        finally:
            server.shutdown()


    @pytest.mark.timeout(60)
    def test_malformed_wire_events_refused(self):
        """A fractional id must not delete row 1, nor a stray key or a
        float index reach the engine: each is a ValidationError and the
        served collection is unchanged."""
        server = EstimationServer(_config()).start()
        try:
            with ServeClient(server.address) as client:
                client.ingest(_events(3))
                with pytest.raises(ValidationError, match="'id' must be an integer"):
                    client._request("ingest", {"events": [{"op": "delete", "id": 1.5}]})
                with pytest.raises(ValidationError, match="'vector': vector indices must be"):
                    client._request(
                        "ingest", {"events": [{"op": "insert", "vector": {"a": 1.0}}]}
                    )
                with pytest.raises(ValidationError, match="integers"):
                    client.ingest([Insert({1.5: 1.0})])
                client.flush()
                assert client.describe()["describe"]["size"] == 3
        finally:
            server.shutdown()

# ----------------------------------------------------------------------
# lock-order regression: the shutdown protocol's ordering contract
# ----------------------------------------------------------------------
class TestLockOrderRegression:
    @pytest.mark.timeout(60)
    def test_conn_lock_and_inflight_cond_are_never_nested(self):
        """Shutdown drains in-flight requests (``_inflight_cond``) and
        closes connections (``_conn_lock``) as *sequential* critical
        sections.  Nesting them — in either direction — would impose an
        ordering constraint on every handler thread; this pins the
        contract at runtime by running a full serve lifecycle under
        tracked locks and asserting neither edge ever appears.
        """
        from repro.analysis import lockdep

        state = lockdep.active_state()
        installed_here = state is None
        if installed_here:
            state = lockdep.install()
        try:
            server = EstimationServer(_config(), max_estimates=2).start()
            try:
                with ServeClient(server.address) as client:
                    client.ingest(_events(40))
                    client.estimate(THRESHOLD, seed=7)
                    client.flush()
            finally:
                server.shutdown()  # the sequence under regression
        finally:
            if installed_here:
                lockdep.uninstall()
        edges = state.edges()
        assert ("EstimationServer._inflight_cond", "EstimationServer._conn_lock") not in edges
        assert ("EstimationServer._conn_lock", "EstimationServer._inflight_cond") not in edges
        assert state.violations() == []
