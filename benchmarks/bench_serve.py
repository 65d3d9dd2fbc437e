"""E20 — serving: estimate latency and throughput under mixed load.

Acceptance gates for :mod:`repro.serve` (the ``repro serve`` daemon):

1. **Latency / throughput under mixed load** — with one writer thread
   ingesting change batches and several reader threads estimating
   concurrently (each over its own connection, the documented client
   model), the p50 and p99 estimate round-trip latencies and the overall
   estimate throughput must stay inside the gates.  Defaults are sized
   for a noisy shared CI runner and adjustable via
   ``REPRO_BENCH_SERVE_P50_MS`` / ``REPRO_BENCH_SERVE_P99_MS`` /
   ``REPRO_BENCH_SERVE_MIN_RPS``.
2. **Bit-identity across the serve boundary** — after the load phase the
   server must answer exact-mode estimates **bit-identically** to a
   direct in-process engine fed the same event sequence: the
   readers–writer gate, the wire round trip, and request concurrency
   must never touch the estimator's arithmetic.  (The same per-seed reproducibility
   the CI ``serve-smoke`` job checks end-to-end through the CLI daemon.)

Load shape is fixed counts, not wall-clock, so the request mix is
deterministic; scale via ``REPRO_BENCH_SERVE_READS`` (estimates per
reader) and ``REPRO_BENCH_SERVE_WRITES`` (writer batches).  Corpus size
scales via ``REPRO_BENCH_DBLP_N`` for the CI smoke run.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from benchmarks._helpers import emit, env_float, env_int, format_table
from repro.engine import EngineConfig, EstimateRequest, JoinEstimationEngine
from repro.serve import EstimationServer, ServeClient
from repro.streaming import Insert

NUM_HASHES = 16
SEED = 617
THRESHOLD = 0.7
READERS = 4
EVENTS_PER_BATCH = 25
IDENTITY_SEEDS = range(5)


def _percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


@pytest.mark.timeout(600)
def test_serve_mixed_load_latency_and_bit_identity(
    benchmark, dblp_collection, results_dir
):
    p50_gate_ms = env_float("REPRO_BENCH_SERVE_P50_MS", 250.0)
    p99_gate_ms = env_float("REPRO_BENCH_SERVE_P99_MS", 2000.0)
    min_rps = env_float("REPRO_BENCH_SERVE_MIN_RPS", 10.0)
    reads_per_reader = env_int("REPRO_BENCH_SERVE_READS", 60)
    write_batches = env_int("REPRO_BENCH_SERVE_WRITES", 20)

    dimension = dblp_collection.dimension
    config = EngineConfig(
        backend="streaming", num_hashes=NUM_HASHES, seed=SEED, dimension=dimension
    )
    # writer events recycle the corpus's own rows (as sparse mappings):
    # realistic density/similarity structure, and a deterministic event
    # sequence the bit-identity phase can replay into a direct engine
    matrix = dblp_collection.matrix.tocsr()

    def _event(index: int) -> Insert:
        row = matrix[index % dblp_collection.size]
        return Insert({int(j): float(v) for j, v in zip(row.indices, row.data)})

    batches = [
        [_event(batch * EVENTS_PER_BATCH + i) for i in range(EVENTS_PER_BATCH)]
        for batch in range(write_batches)
    ]

    server = EstimationServer(
        config, queue_depth=64, max_estimates=READERS * 2
    ).start()
    estimate_seconds: list = []
    ingest_seconds: list = []
    errors: list = []
    try:
        with ServeClient(server.address) as seeder:
            seeder.ingest(dblp_collection)

        def writer() -> None:
            try:
                with ServeClient(server.address) as client:
                    for batch in batches:
                        started = time.perf_counter()
                        client.ingest(batch)
                        ingest_seconds.append(time.perf_counter() - started)
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        def reader(offset: int) -> None:
            try:
                with ServeClient(server.address) as client:
                    for call in range(reads_per_reader):
                        request = EstimateRequest(
                            THRESHOLD, seed=offset * reads_per_reader + call,
                            mode="auto",
                        )
                        started = time.perf_counter()
                        client.estimate(request)
                        estimate_seconds.append(time.perf_counter() - started)
            except Exception as error:  # noqa: BLE001 - surfaced after join
                errors.append(error)

        def run() -> float:
            threads = [threading.Thread(target=writer)]
            threads += [
                threading.Thread(target=reader, args=(index,))
                for index in range(READERS)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            return time.perf_counter() - started

        elapsed = benchmark.pedantic(run, rounds=1, iterations=1)
        assert not errors, f"load generator failed: {errors[0]!r}"

        # --- gate 2: bit-identity across the serve boundary -----------
        with ServeClient(server.address) as client:
            client.flush()
            served = {
                seed: client.estimate(THRESHOLD, seed=seed, mode="exact").value
                for seed in IDENTITY_SEEDS
            }
    finally:
        server.shutdown()

    direct = JoinEstimationEngine(config).open()
    direct.ingest(dblp_collection)
    for batch in batches:
        direct.ingest(batch)
    direct.flush()
    expected = {
        seed: direct.estimate(EstimateRequest(THRESHOLD, seed=seed, mode="exact")).value
        for seed in IDENTITY_SEEDS
    }
    direct.close()
    mismatches = {
        seed: (served[seed], expected[seed])
        for seed in IDENTITY_SEEDS
        if served[seed] != expected[seed]
    }

    p50_ms = _percentile(estimate_seconds, 50) * 1e3
    p99_ms = _percentile(estimate_seconds, 99) * 1e3
    rps = len(estimate_seconds) / elapsed
    rows = [
        ["estimate", len(estimate_seconds), f"{p50_ms:.2f}",
         f"{p99_ms:.2f}", f"{rps:.1f}"],
        ["ingest", len(ingest_seconds),
         f"{_percentile(ingest_seconds, 50) * 1e3:.2f}",
         f"{_percentile(ingest_seconds, 99) * 1e3:.2f}",
         f"{len(ingest_seconds) / elapsed:.1f}"],
    ]
    body = format_table(
        ["op", "requests", "p50 ms", "p99 ms", "req/s"],
        rows,
        title=f"Serve mixed load — n={dblp_collection.size}, k={NUM_HASHES}, "
        f"{READERS} readers × {reads_per_reader} estimates + 1 writer × "
        f"{write_batches} batches of {EVENTS_PER_BATCH} events "
        f"(gates: p50 ≤ {p50_gate_ms:.0f} ms, p99 ≤ {p99_gate_ms:.0f} ms, "
        f"≥ {min_rps:.0f} req/s); exact estimates bit-identical to a direct "
        f"engine: {'yes' if not mismatches else 'NO'}",
    )
    emit(
        "E20_serve_mixed_load", "E20 — serving under mixed load", body, results_dir,
        benchmark=benchmark,
        extra_info={
            "p50_ms": p50_ms,
            "p99_ms": p99_ms,
            "estimate_rps": rps,
            "bit_identical": not mismatches,
        },
    )
    assert not mismatches, (
        f"served exact estimates diverged from the direct engine: {mismatches}"
    )
    assert p50_ms <= p50_gate_ms, (
        f"estimate p50 {p50_ms:.2f} ms exceeds the {p50_gate_ms:.0f} ms gate"
    )
    assert p99_ms <= p99_gate_ms, (
        f"estimate p99 {p99_ms:.2f} ms exceeds the {p99_gate_ms:.0f} ms gate"
    )
    assert rps >= min_rps, (
        f"estimate throughput {rps:.1f} req/s under the {min_rps:.0f} req/s gate"
    )
