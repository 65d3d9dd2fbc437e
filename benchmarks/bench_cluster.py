"""E17 — multi-process shard serving: merge fidelity + ingest throughput gates.

Two acceptance gates for the ``process`` cluster backend (``repro.cluster``):

1. **Merge fidelity** — after replaying a churn log through a process
   cluster (coordinator + one worker process per shard), the exact-mode
   estimate must be **bit-identical** to an unsharded streaming
   estimator's for the same seed, with identical strata.  This is the
   acceptance criterion that the process boundary adds transport, never
   arithmetic.
2. **Ingest throughput** — multi-process ingest must be ≥ the in-process
   ``ShardRouter`` at S = 4.  The in-process side is measured as the
   wall clock one Python process actually delivers (GIL-bound shard
   work).  The cluster side uses the same deployment model as
   ``bench_sharding``: one core per worker, so steady-state throughput
   is bounded by the slowest stage — ``rows / max(coordinator stage,
   slowest worker stage)`` — with the coordinator stage (hash +
   partition + pickle + merge bookkeeping) derived from wall clock minus
   reply-blocked time, and each worker stage measured *inside* the
   worker process.  (Measured cluster wall clock is also reported; on a
   single-core CI runner it cannot express the parallelism, which is
   exactly why the per-stage model is the gated quantity — the same
   reasoning bench_sharding documents for threads.)
   Gate: modeled multi-process throughput ≥ ``REPRO_BENCH_CLUSTER_GATE``
   (default 1.0) × in-process wall-clock throughput.

Sizes scale down via ``REPRO_BENCH_CLUSTER_N`` / ``REPRO_BENCH_CLUSTER_OPS``
for the CI smoke run.  ``BENCH_cluster.json`` is the CI artifact.
"""

from __future__ import annotations

import os
import time

import pytest
from scipy import sparse

from benchmarks._helpers import churn_log, emit, env_float, env_int, format_table
from repro.cluster import ClusterCoordinator
from repro.engine import EngineConfig, JoinEstimationEngine
from repro.shard import ShardedMutableIndex, ShardedStreamingEstimator, ShardRouter
from repro.streaming import MutableLSHIndex, StreamingEstimator

NUM_HASHES = 16
SEED = 401
THRESHOLD = 0.7
NUM_SHARDS = 4
BATCH_SIZE = 512
REQUEST_TIMEOUT = 300.0

# hard SIGALRM deadline per test (benchmarks/conftest.py binds the shared
# timeout hook): a deadlocked worker fails the gate fast, never hangs CI
pytestmark = pytest.mark.timeout(600)


def _ingest_rows(collection, rows: int):
    repeats = rows // collection.size + 1
    matrix = sparse.vstack([collection.matrix] * repeats, format="csr")[:rows]
    return [matrix[i] for i in range(rows)]


# ----------------------------------------------------------------------
# Gate 1: exact-mode estimates bit-identical to an unsharded estimator
# ----------------------------------------------------------------------
def test_cluster_exact_estimates_bit_identical(benchmark, dblp_collection, results_dir):
    operations = env_int("REPRO_BENCH_CLUSTER_OPS", 800)
    log = churn_log(dblp_collection, operations, seed=SEED)

    unsharded = MutableLSHIndex(
        dblp_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED + 1
    )
    log.replay(unsharded)
    reference = StreamingEstimator(unsharded, random_state=SEED + 2)

    config = EngineConfig(
        backend="process",
        num_hashes=NUM_HASHES,
        seed=SEED,
        dimension=dblp_collection.dimension,
        options={
            "shards": NUM_SHARDS,
            "batch_size": 64,
            "request_timeout": REQUEST_TIMEOUT,
        },
    )
    rows = []
    with JoinEstimationEngine(config) as engine:
        engine.ingest(log)
        engine.flush()
        assert engine.size == unsharded.size
        cluster = engine.backend.index
        assert cluster.num_collision_pairs == unsharded.num_collision_pairs
        assert cluster.num_non_collision_pairs == unsharded.num_non_collision_pairs
        for trial_seed in (5, 19, 73):
            ours = engine.estimate(THRESHOLD, seed=trial_seed, mode="exact")
            theirs = reference.estimate(
                THRESHOLD, random_state=trial_seed, mode="exact"
            )
            identical = ours.value == theirs.value
            rows.append([trial_seed, theirs.value, ours.value, str(identical)])
            assert identical, (
                f"process-cluster exact estimate {ours.value!r} != unsharded "
                f"{theirs.value!r} at seed {trial_seed}"
            )
        served = engine.estimate(THRESHOLD, seed=5, mode="auto")
        assert served.value >= 0.0

    body = format_table(
        ["seed", "unsharded exact J", "process-cluster exact J", "bit-identical"],
        rows,
        float_format="{:.6f}",
        title=(
            f"{operations}-op churn, S={NUM_SHARDS} worker processes, "
            f"k={NUM_HASHES}, τ={THRESHOLD}"
        ),
    )
    emit(
        "E17_cluster_fidelity",
        "E17a — process-cluster exact estimates are bit-identical",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={"operations": operations, "num_shards": NUM_SHARDS, "identical": True},
    )
    benchmark(lambda: None)


# ----------------------------------------------------------------------
# Gate 2: multi-process ingest ≥ the in-process ShardRouter at S = 4
# ----------------------------------------------------------------------
def _attach_served_estimator(index) -> None:
    """Attach the facade estimator both engine backends serve from.

    Its reservoir repairs run on every insert, on the coordinator in the
    process shape, so both sides of the gate pay them as shipped (the
    maintenance seed follows the backends' ``seed + 2`` convention).
    """
    ShardedStreamingEstimator(index, random_state=SEED + 2)


def _inprocess_wall_throughput(rows, dimension: float) -> float:
    index = ShardedMutableIndex(
        dimension,
        num_shards=NUM_SHARDS,
        num_hashes=NUM_HASHES,
        random_state=SEED,
    )
    _attach_served_estimator(index)
    router = ShardRouter(index, batch_size=BATCH_SIZE)
    started = time.perf_counter()
    for row in rows:
        router.insert(row)
    router.close()
    return len(rows) / (time.perf_counter() - started)


def _cluster_throughputs(rows, dimension: float):
    """(modeled one-core-per-worker throughput, measured wall throughput)."""
    cluster = ClusterCoordinator(
        dimension,
        num_shards=NUM_SHARDS,
        num_hashes=NUM_HASHES,
        random_state=SEED,
        request_timeout=REQUEST_TIMEOUT,
    )
    try:
        _attach_served_estimator(cluster)
        router = ShardRouter(cluster, batch_size=BATCH_SIZE)
        blocked_before = sum(handle.blocked_seconds for handle in cluster._handles)
        started = time.perf_counter()
        for row in rows:
            router.insert(row)
        router.close()
        wall = time.perf_counter() - started
        blocked = (
            sum(handle.blocked_seconds for handle in cluster._handles) - blocked_before
        )
        coordinator_stage = max(wall - blocked, 1e-9)
        worker_stage = max(handle.worker_ingest_seconds for handle in cluster._handles)
        bound = max(coordinator_stage, worker_stage)
        return (
            len(rows) / bound,
            len(rows) / wall,
            coordinator_stage,
            worker_stage,
        )
    finally:
        cluster.close()


def test_cluster_ingest_throughput(benchmark, dblp_collection, results_dir):
    num_rows = env_int("REPRO_BENCH_CLUSTER_N", 6000)
    gate = env_float("REPRO_BENCH_CLUSTER_GATE", 1.0)
    rows = _ingest_rows(dblp_collection, num_rows)

    inprocess = _inprocess_wall_throughput(rows, dblp_collection.dimension)
    modeled, wall, coordinator_stage, worker_stage = _cluster_throughputs(
        rows, dblp_collection.dimension
    )
    ratio = modeled / inprocess

    body = format_table(
        ["configuration", "rows/s", "vs in-process"],
        [
            [f"in-process ShardRouter (S={NUM_SHARDS}, wall clock)", inprocess, 1.0],
            [
                f"process cluster (modeled, 1 core/worker; coord {coordinator_stage:.2f}s"
                f" / worker {worker_stage:.2f}s)",
                modeled,
                ratio,
            ],
            [
                f"process cluster (wall clock, {os.cpu_count()} host core(s))",
                wall,
                wall / inprocess,
            ],
        ],
        float_format="{:.2f}",
        title=(
            f"{num_rows} rows, batch={BATCH_SIZE}, k={NUM_HASHES}, "
            f"facade estimator on"
        ),
    )
    emit(
        "E17_cluster_ingest",
        "E17b — multi-process ingest vs the in-process ShardRouter",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={
            "rows": num_rows,
            "inprocess_rows_per_s": round(inprocess),
            "cluster_modeled_rows_per_s": round(modeled),
            "cluster_wall_rows_per_s": round(wall),
            "ratio": round(ratio, 3),
            "gate": gate,
        },
    )
    assert ratio >= gate, (
        f"multi-process ingest ({modeled:,.0f} rows/s modeled) fell below "
        f"{gate}x the in-process ShardRouter ({inprocess:,.0f} rows/s): "
        f"ratio {ratio:.2f}"
    )
    benchmark(lambda: None)
