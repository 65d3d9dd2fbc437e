"""E18 — unified engine: facade overhead and cross-backend fidelity.

Two acceptance gates for the engine front door (``repro.engine``):

1. **Facade overhead** — serving an estimate through
   :class:`~repro.engine.JoinEstimationEngine` (request coercion,
   delegation, provenance assembly) must cost ≤ 5 % over calling the
   identically-constructed underlying estimator directly, for both the
   static and the streaming backend.  Measured as best-of-rounds over
   batches of repeated calls so scheduler noise cancels; the gate is
   adjustable for noisy shared runners via ``REPRO_BENCH_ENGINE_GATE``
   (a ratio; default 1.05).
2. **Cross-backend fidelity** — for the same config seed, the engine's
   estimates must be *bit-identical* to direct construction on every
   backend (static vs hand-built ``LSHIndex`` + ``LSHSSEstimator``,
   streaming vs hand-built ``MutableLSHIndex`` + ``StreamingEstimator``),
   the sharded exact mode must equal the unsharded streaming exact mode,
   and a grow-rebalance through the engine must leave exact-mode
   estimates unchanged.

Corpus size scales via ``REPRO_BENCH_DBLP_N`` for the CI smoke run.
"""

from __future__ import annotations

import os
import time

from benchmarks._helpers import emit, format_table
from repro.core import LSHSSEstimator
from repro.engine import EngineConfig, EstimateRequest, JoinEstimationEngine
from repro.lsh import LSHIndex
from repro.streaming import MutableLSHIndex, StreamingEstimator

NUM_HASHES = 16
SEED = 307
THRESHOLD = 0.7
CALLS_PER_ROUND = 20
ROUNDS = 5


def _overhead_gate() -> float:
    try:
        return float(os.environ.get("REPRO_BENCH_ENGINE_GATE", 1.05))
    except ValueError:
        return 1.05


def _best_round_seconds(call) -> float:
    """Fastest of ``ROUNDS`` batches of ``CALLS_PER_ROUND`` calls."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for call_index in range(CALLS_PER_ROUND):
            call(call_index)
        best = min(best, time.perf_counter() - start)
    return best


def test_engine_facade_overhead(benchmark, dblp_collection, results_dir):
    """Gate 1: engine-served estimates cost ≤ 5 % over direct calls."""
    gate = _overhead_gate()
    dimension = dblp_collection.dimension

    # static: identical constructions (engine builds its index from seed+1)
    static_engine = JoinEstimationEngine(
        EngineConfig(backend="static", num_hashes=NUM_HASHES, seed=SEED)
    ).open()
    static_engine.ingest(dblp_collection)
    static_engine.estimate(THRESHOLD)  # force the lazy build out of the timing
    static_index = LSHIndex(dblp_collection, num_hashes=NUM_HASHES, random_state=SEED + 1)
    static_direct = LSHSSEstimator(static_index.primary_table)

    streaming_engine = JoinEstimationEngine(
        EngineConfig(backend="streaming", num_hashes=NUM_HASHES, seed=SEED,
                     dimension=dimension)
    ).open()
    streaming_engine.ingest(dblp_collection)
    streaming_index = MutableLSHIndex(dimension, num_hashes=NUM_HASHES, random_state=SEED + 1)
    streaming_estimator = StreamingEstimator(streaming_index, random_state=SEED + 2)
    streaming_index.insert_many(dblp_collection.matrix)

    def run():
        measurements = {}
        measurements["static"] = (
            _best_round_seconds(
                lambda i: static_engine.estimate(EstimateRequest(THRESHOLD, seed=i))
            ),
            _best_round_seconds(
                lambda i: static_direct.estimate(THRESHOLD, random_state=i)
            ),
        )
        measurements["streaming"] = (
            _best_round_seconds(
                lambda i: streaming_engine.estimate(
                    EstimateRequest(THRESHOLD, seed=i, mode="auto")
                )
            ),
            _best_round_seconds(
                lambda i: streaming_estimator.estimate(THRESHOLD, random_state=i, mode="auto")
            ),
        )
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    ratios = {}
    for backend, (engine_seconds, direct_seconds) in measurements.items():
        ratio = engine_seconds / direct_seconds
        ratios[backend] = ratio
        per_call_us = (engine_seconds - direct_seconds) / CALLS_PER_ROUND * 1e6
        rows.append([
            backend,
            f"{direct_seconds / CALLS_PER_ROUND * 1e3:.3f}",
            f"{engine_seconds / CALLS_PER_ROUND * 1e3:.3f}",
            f"{ratio:.4f}",
            f"{per_call_us:+.1f}",
        ])
    body = format_table(
        ["backend", "direct ms/call", "engine ms/call", "ratio", "overhead µs/call"],
        rows,
        title=f"Engine facade overhead — n={dblp_collection.size}, "
        f"k={NUM_HASHES}, τ={THRESHOLD}, best of {ROUNDS}×{CALLS_PER_ROUND} calls "
        f"(gate ≤ {gate:.2f}×)",
    )
    emit(
        "E18_engine_overhead", "E18 — engine facade overhead", body, results_dir,
        benchmark=benchmark,
        extra_info={f"ratio_{backend}": ratio for backend, ratio in ratios.items()},
    )
    static_engine.close()
    streaming_engine.close()
    for backend, ratio in ratios.items():
        assert ratio <= gate, (
            f"{backend} backend facade overhead {ratio:.4f}× exceeds the {gate:.2f}× gate"
        )


def test_engine_cross_backend_fidelity(benchmark, dblp_collection, results_dir):
    """Gate 2: engine estimates are bit-identical to direct construction."""
    dimension = dblp_collection.dimension
    request = EstimateRequest(THRESHOLD, seed=11, mode="exact")
    checks = []

    def run():
        results = {}
        # static vs hand-built
        with JoinEstimationEngine(
            EngineConfig(backend="static", num_hashes=NUM_HASHES, seed=SEED)
        ) as engine:
            engine.ingest(dblp_collection)
            via_engine = engine.estimate(EstimateRequest(THRESHOLD, seed=11)).value
        index = LSHIndex(dblp_collection, num_hashes=NUM_HASHES, random_state=SEED + 1)
        direct = LSHSSEstimator(index.primary_table).estimate(
            THRESHOLD, random_state=11
        ).value
        results["static == direct"] = (via_engine, direct)

        # streaming vs hand-built
        with JoinEstimationEngine(
            EngineConfig(backend="streaming", num_hashes=NUM_HASHES, seed=SEED,
                         dimension=dimension)
        ) as engine:
            engine.ingest(dblp_collection)
            via_engine = engine.estimate(request).value
            streaming_value = via_engine
        mutable = MutableLSHIndex(dimension, num_hashes=NUM_HASHES, random_state=SEED + 1)
        estimator = StreamingEstimator(mutable, random_state=SEED + 2)
        mutable.insert_many(dblp_collection.matrix)
        direct = estimator.estimate(THRESHOLD, random_state=11, mode="exact").value
        results["streaming == direct"] = (via_engine, direct)

        # sharded exact vs unsharded exact, before and after a rebalance
        with JoinEstimationEngine(
            EngineConfig(backend="sharded", num_hashes=NUM_HASHES, seed=SEED,
                         dimension=dimension,
                         options={"num_shards": 4})
        ) as engine:
            engine.ingest(dblp_collection)
            sharded_before = engine.estimate(request).value
            engine.rebalance(num_shards=6)
            sharded_after = engine.estimate(request).value
        results["sharded == unsharded"] = (sharded_before, streaming_value)
        results["rebalanced == sharded"] = (sharded_after, sharded_before)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for label, (left, right) in results.items():
        identical = left == right
        checks.append((label, identical))
        rows.append([label, left, right, "yes" if identical else "NO"])
    body = format_table(
        ["check", "engine", "reference", "bit-identical"],
        rows,
        float_format="{:.6f}",
        title=f"Engine cross-backend fidelity — n={dblp_collection.size}, "
        f"k={NUM_HASHES}, τ={THRESHOLD}, seed={SEED}",
    )
    emit(
        "E18_engine_fidelity", "E18 — engine cross-backend fidelity", body, results_dir,
        benchmark=benchmark,
        extra_info={label: ok for label, ok in checks},
    )
    for label, identical in checks:
        assert identical, f"fidelity check failed: {label}"
