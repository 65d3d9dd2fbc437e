"""E16 — online shard rebalancing: minimal key movement, lossless migration.

Two acceptance gates for the rebalancing subsystem
(``repro.shard.rebalance``):

1. **Minimal movement** — resizing a cluster from ``S`` to ``S + 1``
   shards must relocate at most ``1.5 / (S + 1)`` of the live bucket keys
   (the highest-random-weight expectation of
   :class:`~repro.shard.partition.KeyPartitioner` is ``1/(S+1)``; the
   factor covers sampling noise at laptop-scale key counts).
2. **Lossless migration** — after growing and then shrinking a live
   cluster (two full key migrations, moving the members' rows by id),
   the merged exact-mode LSH-SS estimate must be
   **bit-identical** to an unsharded streaming estimator fed the same
   event sequence, with identical strata counts.

The migration throughput (vectors moved per second, plan + apply) is
reported for context but not gated — it is dominated by the row gather,
add and remove on the affected shards.

Sizes scale down via ``REPRO_BENCH_REBALANCE_N`` for the CI smoke run.
"""

from __future__ import annotations

import os
import time

from benchmarks._helpers import churn_log, emit, format_table
from repro.shard import (
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    plan_rebalance,
    rebalance_cluster,
)
from repro.streaming import MutableLSHIndex, StreamingEstimator

NUM_HASHES = 16
SEED = 223
THRESHOLD = 0.7
RESIZE_SHARD_COUNTS = (2, 4, 8)


def _ingest_n() -> int:
    try:
        return int(os.environ.get("REPRO_BENCH_REBALANCE_N", 6000))
    except ValueError:
        return 6000


def _ingest_matrix(collection, rows: int):
    """Tile the corpus up to ``rows`` vectors (duplicates are fine here)."""
    from scipy import sparse

    repeats = rows // collection.size + 1
    return sparse.vstack([collection.matrix] * repeats, format="csr")[:rows]


def test_resize_moves_minimal_key_fraction(benchmark, dblp_collection, results_dir):
    """Gate 1: S → S+1 moves ≤ 1.5/(S+1) of bucket keys."""
    matrix = _ingest_matrix(dblp_collection, _ingest_n())

    def run():
        rows = []
        fractions = {}
        for num_shards in RESIZE_SHARD_COUNTS:
            cluster = ShardedMutableIndex(
                matrix.shape[1],
                num_shards=num_shards,
                num_hashes=NUM_HASHES,
                random_state=SEED,
            )
            cluster.insert_many(matrix)
            total_keys = cluster.primary_table.num_buckets
            start = time.perf_counter()
            plan = rebalance_cluster(cluster, num_shards=num_shards + 1)
            seconds = time.perf_counter() - start
            cluster.check_invariants()
            fractions[num_shards] = plan.moved_fraction
            rows.append(
                [
                    f"{num_shards}→{num_shards + 1}",
                    total_keys,
                    plan.moved_keys,
                    plan.moved_fraction,
                    1.5 / (num_shards + 1),
                    plan.moved_vectors,
                    plan.moved_vectors / max(seconds, 1e-9),
                ]
            )
        return rows, fractions

    rows, fractions = benchmark.pedantic(run, rounds=1, iterations=1)
    body = format_table(
        ["resize", "bucket keys", "keys moved", "fraction", "gate ≤",
         "vectors moved", "migrated rows/s"],
        rows,
        float_format="{:.3f}",
    )
    body += (
        "\nhighest-random-weight expectation: 1/(S+1) of keys move, all onto "
        "the new shard"
    )
    emit(
        "E16_rebalance_key_movement",
        f"Rebalance — minimal key movement on resize (n={matrix.shape[0]}, "
        f"k={NUM_HASHES})",
        body,
        results_dir,
        benchmark=benchmark,
        extra_info={
            f"moved_fraction_S{num_shards}": value
            for num_shards, value in fractions.items()
        },
    )
    for num_shards, fraction in fractions.items():
        assert fraction <= 1.5 / (num_shards + 1), (
            f"resize {num_shards}→{num_shards + 1} moved {fraction:.3f} of keys "
            f"(gate: ≤ {1.5 / (num_shards + 1):.3f})"
        )


def test_post_migration_estimates_bit_identical(dblp_collection, results_dir):
    """Gate 2: grow + shrink migrations leave exact estimates bit-identical."""
    log = churn_log(dblp_collection, 600, seed=SEED)
    unsharded = MutableLSHIndex(
        dblp_collection.dimension, num_hashes=NUM_HASHES, random_state=SEED
    )
    log.replay(unsharded)
    reference = StreamingEstimator(unsharded, random_state=0)
    rows = []
    for num_shards in (2, 3):
        cluster = ShardedMutableIndex(
            dblp_collection.dimension,
            num_shards=num_shards,
            num_hashes=NUM_HASHES,
            random_state=SEED,
        )
        with ShardRouter(cluster, batch_size=64) as router:
            router.replay(log)
        grow = rebalance_cluster(cluster, num_shards=num_shards + 1)
        shrink = rebalance_cluster(cluster, num_shards=num_shards)
        cluster.check_invariants()
        assert cluster.num_collision_pairs == unsharded.num_collision_pairs
        assert cluster.num_non_collision_pairs == unsharded.num_non_collision_pairs
        estimator = ShardedStreamingEstimator(cluster)
        for query_seed in (11, 99):
            merged = estimator.estimate(THRESHOLD, random_state=query_seed, mode="exact")
            expected = reference.estimate(THRESHOLD, random_state=query_seed, mode="exact")
            assert merged.value == expected.value, (
                f"S={num_shards}, seed={query_seed}: {merged.value} != {expected.value}"
            )
        rows.append(
            [
                num_shards,
                cluster.size,
                grow.moved_keys + shrink.moved_keys,
                grow.moved_vectors + shrink.moved_vectors,
                merged.value,
            ]
        )
    emit(
        "E16_rebalance_migration_fidelity",
        f"Rebalance — post-migration exact estimates bit-identical (τ={THRESHOLD})",
        format_table(
            ["shards", "n", "keys migrated (grow+shrink)",
             "vectors migrated", "estimate (== unsharded)"],
            rows,
            float_format="{:.1f}",
        ),
        results_dir,
    )


def test_plan_only_is_cheap(benchmark, dblp_collection, results_dir):
    """Context: planning a rebalance is one vectorised pass over the keys."""
    matrix = _ingest_matrix(dblp_collection, _ingest_n())
    cluster = ShardedMutableIndex(
        matrix.shape[1],
        num_shards=4,
        num_hashes=NUM_HASHES,
        random_state=SEED,
    )
    cluster.insert_many(matrix)

    plan = benchmark(lambda: plan_rebalance(cluster, 5))
    total_keys = cluster.primary_table.num_buckets
    emit(
        "E16_rebalance_plan_cost",
        f"Rebalance — plan cost over {total_keys} bucket keys",
        format_table(
            ["bucket keys", "moves planned", "mean plan time (ms)"],
            [[total_keys, plan.moved_keys, benchmark.stats["mean"] * 1000.0]],
            float_format="{:.3f}",
        ),
        results_dir,
    )
