"""E15 — sharded scale-out: ingest scaling, query cost, merge fidelity.

Three acceptance gates for the sharded subsystem (``repro.shard``):

1. **Ingest scaling** — routing a batch through the
   :class:`~repro.shard.ShardedMutableIndex` write path and ingesting the
   per-shard slices must scale near-linearly.  The gate uses the
   deployment model — one node per shard, with the router (coerce + batch
   hash + partition + merge bookkeeping) pipelined against the shard
   ingests across batches, so steady-state throughput is bounded by the
   *slowest stage*: ``rows / max(router, slowest shard)``.  In-process
   threads cannot parallelise the GIL-bound bucket work, hence the
   per-stage timing model rather than wall-clock threading.
   Gate: ≥ 2× single-shard throughput at S = 4.
2. **Query cost** — mutable-path ``cosine_pairs`` (pooled row store)
   must stay within 1.3× of the static path
   (:func:`repro.vectors.similarity.cosine_pairs` over the pre-normalised
   collection matrix): both are one scipy row index per side into rows
   normalised ahead of time, then the same kernel.  The S = 4
   :class:`~repro.shard.ShardedMutableIndex` facade must return the same
   values within 2× of the mutable path on the same pairs.  Each path
   counts its best of three alternating timed blocks.
3. **Merge fidelity** — after replaying a churn log, the sharded
   exact-mode estimate must be *bit-identical* to the unsharded
   streaming estimator's for the same seed, with identical strata.

Sizes scale down via ``REPRO_BENCH_SHARD_N`` for the CI smoke run.
"""

from __future__ import annotations

import os
import time
from typing import List, Tuple

import numpy as np

from benchmarks._helpers import churn_log, emit, format_table
from repro.shard import ShardedMutableIndex, ShardedStreamingEstimator, ShardRouter
from repro.streaming import MutableLSHIndex, StreamingEstimator
from repro.vectors import cosine_pairs as static_cosine_pairs

NUM_HASHES = 16
SEED = 211
THRESHOLD = 0.7
SHARD_COUNTS = (1, 2, 4, 8)
QUERY_PAIRS = 2000
QUERY_ROUNDS = 15


def _ingest_n() -> int:
    try:
        return int(os.environ.get("REPRO_BENCH_SHARD_N", 8000))
    except ValueError:
        return 8000


def _ingest_matrix(collection, rows: int):
    """Tile the corpus up to ``rows`` vectors (duplicates are fine here)."""
    from scipy import sparse

    repeats = rows // collection.size + 1
    return sparse.vstack([collection.matrix] * repeats, format="csr")[:rows]


def _sharded_ingest_times(matrix, num_shards: int) -> Tuple[float, float]:
    """(router_seconds, slowest_shard_seconds) for one prepared batch.

    Router side: coerce + batch hash + partition (``prepare_batch``) plus
    the facade's merge bookkeeping (``_track_insert``); shard side: each
    shard's row-store ``add_many`` over its slice, timed separately to
    model one node per shard.
    """
    sharded = ShardedMutableIndex(
        matrix.shape[1],
        num_shards=num_shards,
        num_hashes=NUM_HASHES,
        random_state=SEED,
    )
    start = time.perf_counter()
    batch = sharded.prepare_batch(matrix)
    router_seconds = time.perf_counter() - start
    shard_seconds: List[float] = [0.0]
    for shard in sharded.shards:
        rows = np.flatnonzero(batch.shard_ids == shard.shard_id)
        if rows.size == 0:
            continue
        sub_ids = batch.ids[rows]
        sub_csr = batch.csr[rows]
        start = time.perf_counter()
        shard.store.add_many(sub_ids, sub_csr)
        shard_seconds.append(time.perf_counter() - start)
    start = time.perf_counter()
    for position in range(len(batch)):
        sharded._track_insert(
            int(batch.ids[position]), batch.keys[position], int(batch.shard_ids[position])
        )
    router_seconds += time.perf_counter() - start
    return router_seconds, max(shard_seconds)


def test_sharded_ingest_scaling(benchmark, dblp_collection, results_dir):
    """Gate 1: ≥ 2× single-shard ingest throughput at 4 shards."""
    matrix = _ingest_matrix(dblp_collection, _ingest_n())
    num_rows = matrix.shape[0]

    def run():
        single = MutableLSHIndex(matrix.shape[1], num_hashes=NUM_HASHES, random_state=SEED)
        start = time.perf_counter()
        single.insert_many(matrix)
        single_seconds = time.perf_counter() - start
        rows = []
        speedups = {}
        for num_shards in SHARD_COUNTS:
            router_seconds, slowest = _sharded_ingest_times(matrix, num_shards)
            latency = router_seconds + slowest
            bottleneck = max(router_seconds, slowest, 1e-9)
            speedup = single_seconds / bottleneck
            speedups[num_shards] = speedup
            rows.append(
                [
                    num_shards,
                    router_seconds * 1000.0,
                    slowest * 1000.0,
                    latency * 1000.0,
                    num_rows / bottleneck,
                    speedup,
                ]
            )
        return single_seconds, rows, speedups

    single_seconds, rows, speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    body = format_table(
        ["shards", "router (ms)", "slowest shard (ms)", "batch latency (ms)",
         "pipelined rows/s", "speedup vs 1 node"],
        rows,
        float_format="{:.2f}",
    )
    body += (
        f"\nsingle-node insert_many: {single_seconds * 1000.0:.2f} ms "
        f"({num_rows / max(single_seconds, 1e-9):.0f} rows/s); pipelined model: "
        "throughput = rows / max(router stage, slowest shard), one node per shard"
    )
    emit(
        "E15_sharded_ingest_scaling",
        f"Sharding — batched ingest scaling (n={num_rows}, k={NUM_HASHES})",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={f"speedup_S{num_shards}": value for num_shards, value in speedups.items()},
    )
    assert speedups[4] >= 2.0, (
        f"sharded ingest at 4 shards only {speedups[4]:.2f}x a single shard"
    )


def test_mutable_query_cost_vs_static(benchmark, dblp_collection, results_dir):
    """Gate 2: pooled-row-store cosine queries within 1.3× of the static path,
    and the S = 4 facade's within 2× of the pooled row store's."""
    index = MutableLSHIndex.from_collection(
        dblp_collection, num_hashes=NUM_HASHES, random_state=SEED
    )
    sharded = ShardedMutableIndex.from_collection(
        dblp_collection, num_shards=4, num_hashes=NUM_HASHES, random_state=SEED
    )
    rng = np.random.default_rng(SEED)
    left = rng.integers(0, dblp_collection.size, size=QUERY_PAIRS)
    right = rng.integers(0, dblp_collection.size, size=QUERY_PAIRS)

    def static(left_ids, right_ids):
        return static_cosine_pairs(dblp_collection, left_ids, right_ids)

    # the row stores normalise at insert; this first call builds the static
    # collection's cached normalized_matrix outside the timing
    mutable_values = index.cosine_pairs(left, right)
    np.testing.assert_array_equal(mutable_values, static(left, right))
    np.testing.assert_array_equal(sharded.cosine_pairs(left, right), mutable_values)

    def timed(cosine_pairs) -> float:
        start = time.perf_counter()
        for _ in range(QUERY_ROUNDS):
            cosine_pairs(left, right)
        return time.perf_counter() - start

    # best of alternating blocks, so one burst of host noise cannot decide a gate
    def run():
        return [
            (timed(index.cosine_pairs), timed(static), timed(sharded.cosine_pairs))
            for _ in range(3)
        ]

    blocks = benchmark.pedantic(run, rounds=1, iterations=1)
    mutable_seconds, static_seconds, sharded_seconds = (min(side) for side in zip(*blocks))
    ratio = mutable_seconds / max(static_seconds, 1e-9)
    sharded_ratio = sharded_seconds / max(mutable_seconds, 1e-9)
    body = format_table(
        ["path (best of 3)", "total (ms)", "per call (ms)"],
        [
            ["mutable (RowStore gather)", mutable_seconds * 1000.0,
             mutable_seconds / QUERY_ROUNDS * 1000.0],
            ["static (normalized_matrix)", static_seconds * 1000.0,
             static_seconds / QUERY_ROUNDS * 1000.0],
            ["sharded S = 4 (facade gather)", sharded_seconds * 1000.0,
             sharded_seconds / QUERY_ROUNDS * 1000.0],
        ],
        float_format="{:.3f}",
    )
    body += f"\nmutable / static ratio: {ratio:.2f}x (gate: ≤ 1.3×); values bit-identical"
    body += f"\nsharded / mutable ratio: {sharded_ratio:.2f}x (gate: ≤ 2×); values bit-identical"
    emit(
        "E15_mutable_query_cost",
        f"Sharding — mutable-path cosine_pairs vs static path "
        f"({QUERY_PAIRS} pairs × {QUERY_ROUNDS} rounds)",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={"query_ratio": ratio, "sharded_query_ratio": sharded_ratio},
    )
    assert ratio <= 1.3, f"mutable-path queries {ratio:.2f}x the static path"
    assert sharded_ratio <= 2.0, f"S = 4 facade queries {sharded_ratio:.2f}x the mutable path"


def test_sharded_estimates_bit_identical(dblp_collection, results_dir):
    """Gate 3: merged exact estimates == unsharded estimates, bit for bit."""
    log = churn_log(dblp_collection, 600, seed=SEED)
    unsharded = MutableLSHIndex(
        dblp_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
    )
    log.replay(unsharded)
    reference = StreamingEstimator(unsharded, random_state=0)
    rows = []
    for num_shards in (2, 4, 7):
        sharded = ShardedMutableIndex(
            dblp_collection.dimension,
            num_shards=num_shards,
            num_hashes=NUM_HASHES,
            random_state=SEED,
        )
        with ShardRouter(sharded, batch_size=64) as router:
            router.replay(log)
        assert sharded.num_collision_pairs == unsharded.num_collision_pairs
        assert sharded.num_non_collision_pairs == unsharded.num_non_collision_pairs
        estimator = ShardedStreamingEstimator(sharded)
        for query_seed in (11, 99):
            merged = estimator.estimate(THRESHOLD, random_state=query_seed, mode="exact")
            expected = reference.estimate(THRESHOLD, random_state=query_seed, mode="exact")
            assert merged.value == expected.value, (
                f"S={num_shards}, seed={query_seed}: {merged.value} != {expected.value}"
            )
        rows.append([num_shards, sharded.size, sharded.num_collision_pairs, merged.value])
    emit(
        "E15_sharded_merge_fidelity",
        f"Sharding — merged estimates bit-identical to unsharded (τ={THRESHOLD})",
        format_table(["shards", "n", "N_H", "estimate (== unsharded)"], rows,
                     float_format="{:.1f}"),
        results_dir,
    )
