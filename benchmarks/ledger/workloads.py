"""The four ledger workloads, their seeded inputs and their correctness checks.

Every workload has one shape.  It builds its inputs from the seed, then
runs five *segments*, each on a fresh set-up of the deployment: the
set-up is timed (``setup_s`` is the median over segments), at least 20
warm-up operations follow, then the segment's share of the measured
operations.  Latencies and throughput are pooled over the segments.
Fresh set-ups matter for the multi-process shapes: where the scheduler
places the workers is fixed for a deployment's lifetime and differs
between deployments, so one long segment would measure one placement
(on a 2-core host, five segments instead of three halved the
run-to-run spread of ``churn_process``).

The measured operation count is ``seconds × OPS_PER_SECOND[workload]``,
calibrated once so that the measured phase lasts about ``seconds`` at
the commit that introduced the ledger, and frozen: two commits always
do the same work.  A traced run alternates traced and untraced
operations (even ones traced), so the per-layer numbers and the tracing
overhead come from the same state trajectory.

The load generator is this one process: one client thread (two for
``churn_serve``: a writer and a reader in lockstep rounds), at most two
connections, and the program sees only the generated inputs.
"""

from __future__ import annotations

import gc
import math
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from benchmarks.ledger import metrics as M
from benchmarks.ledger.tracer import PROCESS, SERVE, STATIC, STREAMING, Tracer, install, uncalled
from repro.datasets import make_dblp_like, make_nyt_like
from repro.engine import EngineConfig, EstimateRequest, JoinEstimationEngine
from repro.errors import ServerBusyError
from repro.join import exact_join_size, exact_join_sizes
from repro.serve import ServeClient, connect_with_retry
from repro.shard import ShardedMutableIndex, ShardRouter
from repro.streaming import Delete, Insert
from repro.vectors import VectorCollection

ROOT = Path(__file__).resolve().parents[2]
clock = time.perf_counter

NUM_HASHES = 20  # k of the paper's Fig. 2 configuration
STATIC_TAUS = (0.2, 0.5, 0.9)
BATCH_EVENTS = 50
#: half the events delete a live row, so the live set stays near its
#: bulk-loaded size: every measured operation sees the same steady state
DELETE_SHARE = 0.5
CHURN_TAU = 0.7
EXACT_TAU = 0.9
EXACT_EVERY = 20  # batches between the exact estimates of the churn mix
PROCESS_WORKERS = 2
SERVE_SHARDS = 4
WARMUP_OPS = 20
WARMUP_SEED = 1_000_000  # request seeds of warm-up estimates, apart from measured ones
IDENTITY_SEEDS = range(5)
ACCURACY_SEEDS = range(20)
ACCURACY_CHECKPOINTS = 5
ROUTER_ROUNDS = 3
FLAVORS = {"lsh-ss": "lsh_ss", "lsh-s": "lsh_s", "ju": "ju", "lc": "lc", "rs": "rs"}

#: measured operations per second of ``--seconds``: estimates for
#: static_query, 50-event batches for the churn workloads (one batch and
#: one estimate per round on churn_serve).  Calibrated on the 2-core
#: host of the commit that introduced the ledger; do not retune in a
#: change that claims a gain.
OPS_PER_SECOND = {STATIC: 155.0, STREAMING: 60.0, PROCESS: 11.0, SERVE: 12.0}

EST, ING, EXACT = "estimate", "ingest", "exact"


@dataclass(frozen=True)
class Sizes:
    """Input sizes and segment count; tests shrink them, the benchmark does not."""

    static_n: int = 5000
    churn_n: int = 3000
    segments: int = 5


@dataclass
class Outcome:
    end_to_end: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class ChurnStream:
    """Seeded 50-event insert/delete batches over a bulk-loaded collection.

    Each event deletes a random live id with probability
    ``DELETE_SHARE`` and otherwise inserts a random corpus row; ids
    follow the engine's sequential assignment, starting after the
    ``collection.size`` bulk-loaded rows.
    """

    def __init__(self, collection: VectorCollection, seed: int) -> None:
        self._collection = collection
        self._rng = np.random.default_rng([seed, 1])
        self._live = list(range(collection.size))
        self._next_id = collection.size

    def next_batch(self) -> List[Any]:
        rng, live = self._rng, self._live
        batch: List[Any] = []
        for _ in range(BATCH_EVENTS):
            if live and rng.random() < DELETE_SHARE:
                slot = int(rng.integers(len(live)))
                batch.append(Delete(live[slot]))
                live[slot] = live[-1]
                live.pop()
            else:
                row = int(rng.integers(self._collection.size))
                batch.append(Insert(self._collection.row_dict(row)))
                live.append(self._next_id)
                self._next_id += 1
        return batch


def per_segment_ops(workload: str, seconds: float, sizes: Sizes) -> int:
    """The run's fixed operation count, split evenly over its segments."""
    return max(2, math.ceil(round(seconds * OPS_PER_SECOND[workload]) / sizes.segments))


def _settle_inputs() -> None:
    """Move the generated inputs out of the collector's reach.

    The harness holds every pre-generated event; without this, the
    program's garbage collections would rescan them on every full pass.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# shared measurement helpers
# ----------------------------------------------------------------------
def _in_range(value: float, n: int) -> bool:
    return 0.0 <= value <= n * (n - 1) / 2


@dataclass
class _Run:
    """What one run measures, pooled over its segments."""

    setups: List[float] = field(default_factory=list)
    estimates: List[float] = field(default_factory=list)
    by_tau: Dict[float, List[float]] = field(default_factory=dict)
    active: List[float] = field(default_factory=list)  # traced estimates
    inactive: List[float] = field(default_factory=list)  # untraced estimates
    ingests: List[float] = field(default_factory=list)
    untraced_ingests: List[float] = field(default_factory=list)
    exacts: List[float] = field(default_factory=list)
    traced_wall: List[float] = field(default_factory=list)
    traced_events: int = 0
    details: List[Tuple[float, Dict[str, Any], int]] = field(default_factory=list)
    wall: float = 0.0
    rss_mb: float = 0.0
    problems: List[str] = field(default_factory=list)

    def timed_setup(self, open_fn: Callable[[], Any]) -> Any:
        started = clock()
        handle = open_fn()
        self.setups.append(clock() - started)
        return handle

    def estimate(self, index: int, elapsed: float, result: Any, n: int) -> None:
        """One measured auto/fresh estimate; even indexes ran traced."""
        self.estimates.append(elapsed)
        self.by_tau.setdefault(result.threshold, []).append(elapsed)
        (self.active if index % 2 == 0 else self.inactive).append(elapsed)
        self.details.append((result.threshold, result.details, n))
        self.check(result, n)

    def check(self, result: Any, n: int) -> None:
        if not _in_range(result.value, n):
            self.problems.append(f"estimate {result.value} outside [0, M] (n={n})")

    def end_to_end(self) -> Dict[str, float]:
        # the median of each τ of the mix, averaged: the pooled median of
        # static_query's mix falls between the τ=0.2 and τ=0.9 latency
        # modes, where a small shift of either moves it far
        tau_medians = [M.median(values) for values in self.by_tau.values()]
        return {
            "setup_s": M.median(self.setups),
            "estimate_p50_ms": float(np.mean(tau_medians)) * 1e3,
            "estimates_per_s": len(self.estimates) / self.wall,
            "peak_rss_mb": self.rss_mb,
        }


ALL = (EST, ING, EXACT)
#: per-layer metrics read from the tracer:
#: (metric, record names, phases, statistic, normaliser)
_TRACED = [
    ("engine.estimate.self_ms_per_op", ("engine.estimate",), (EST, EXACT), "self_ms", "call"),
    ("engine.ingest.self_ms_per_op", ("engine.ingest",), (ING,), "self_ms", "call"),
    ("vectors.cosine_pairs.self_ms_per_estimate",
     ("vectors.cosine_pairs",), (EST,), "self_ms", "estimate"),
    ("vectors.cosine_pairs.pairs_per_estimate",
     ("vectors.cosine_pairs",), (EST,), "measure", "estimate"),
    ("lsh.LSHTable.sample_collision_pairs.self_ms_per_estimate",
     ("lsh.LSHTable.sample_collision_pairs",), (EST,), "self_ms", "estimate"),
    ("lsh.LSHTable.sample_collision_pairs.calls_per_estimate",
     ("lsh.LSHTable.sample_collision_pairs",), (EST,), "calls", "estimate"),
    ("lsh.LSHTable.sample_non_collision_pairs.self_ms_per_estimate",
     ("lsh.LSHTable.sample_non_collision_pairs",), (EST,), "self_ms", "estimate"),
    ("lsh.LSHTable.sample_non_collision_pairs.calls_per_estimate",
     ("lsh.LSHTable.sample_non_collision_pairs",), (EST,), "calls", "estimate"),
    ("sampling.adaptive_sample.self_ms_per_estimate",
     ("sampling.adaptive_sample",), (EST,), "self_ms", "estimate"),
    ("core.sample_stratum_h.self_ms_per_estimate",
     ("core.sample_stratum_h",), (EST,), "self_ms", "estimate"),
    ("core.sample_stratum_l.self_ms_per_estimate",
     ("core.sample_stratum_l",), (EST,), "self_ms", "estimate"),
    ("streaming.MutableLSHIndex.cosine_pairs.self_ms_per_estimate",
     ("streaming.MutableLSHIndex.cosine_pairs",), (EST,), "self_ms", "estimate"),
    ("streaming.coerce_row.self_ms_per_event",
     ("streaming.coerce_row",), (ING,), "self_ms", "event"),
    ("lsh.LSHFamily.hash_matrix.self_ms_per_event",
     ("lsh.LSHFamily.hash_matrix",), (ING,), "self_ms", "event"),
    ("lsh.LSHFamily.hash_matrix.calls_per_event",
     ("lsh.LSHFamily.hash_matrix",), (ING,), "calls", "event"),
    ("streaming.MutableLSHIndex.insert.self_ms_per_event",
     ("streaming.MutableLSHIndex.insert",), (ING,), "self_ms", "event"),
    ("streaming.MutableLSHIndex.delete.self_ms_per_event",
     ("streaming.MutableLSHIndex.delete",), (ING,), "self_ms", "event"),
    ("streaming.StreamingEstimator.on_insert.self_ms_per_event",
     ("streaming.StreamingEstimator.on_insert",), (ING,), "self_ms", "event"),
    ("streaming.StreamingEstimator.on_delete.self_ms_per_event",
     ("streaming.StreamingEstimator.on_delete",), (ING,), "self_ms", "event"),
    # reservoir repair runs on mutation and, lazily, on the next auto read
    ("streaming.StreamingEstimator.refill.self_ms_per_event",
     ("streaming.StreamingEstimator.refill",), (ING, EST), "self_ms", "event"),
    ("streaming.reservoir_redraws_per_1k_events",
     ("streaming.StreamingEstimator.refill",), (ING, EST), "calls", "kevent"),
    ("shard.ShardRouter.flush.self_ms_per_event",
     ("shard.ShardRouter.flush",), (ING,), "self_ms", "event"),
    ("shard.ShardedMutableIndex.prepare_batch.self_ms_per_event",
     ("shard.ShardedMutableIndex.prepare_batch",), (ING,), "self_ms", "event"),
    ("shard.KeyPartitioner.shard_of_signatures.self_ms_per_event",
     ("shard.KeyPartitioner.shard_of_signatures",), (ING,), "self_ms", "event"),
    ("shard.ShardedStreamingEstimator.estimate.self_ms_per_estimate",
     ("shard.ShardedStreamingEstimator.estimate",), (EST,), "self_ms", "estimate"),
    ("shard.ShardedMutableIndex.cosine_pairs.self_ms_per_estimate",
     ("shard.ShardedMutableIndex.cosine_pairs",), (EST,), "self_ms", "estimate"),
    ("cluster.ClusterCoordinator.commit_batch.self_ms_per_event",
     ("cluster.ClusterCoordinator.commit_batch",), (ING,), "self_ms", "event"),
    ("cluster.round_trips_per_estimate",
     ("cluster.WorkerHandle.send_request",), (EST,), "calls", "estimate"),
    ("cluster.round_trips_per_event",
     ("cluster.WorkerHandle.send_request",), (ING,), "calls", "event"),
    ("cluster.transport.bytes_per_estimate",
     ("cluster.transport.encode", "cluster.transport.decode"), (EST,), "measure", "estimate"),
    ("cluster.transport.bytes_per_event",
     ("cluster.transport.encode", "cluster.transport.decode"), (ING,), "measure", "event"),
    ("cluster.transport.encode.self_ms_per_op",
     ("cluster.transport.encode",), ALL, "self_ms", "call"),
    ("cluster.transport.decode.self_ms_per_op",
     ("cluster.transport.decode",), ALL, "self_ms", "call"),
    ("cluster.worker_busy_ms_per_estimate",
     ("cluster.WorkerHandle.recv_reply",), (EST,), "measure_ms", "estimate"),
    ("cluster.coordinator_wait_ms_per_estimate",
     ("cluster.WorkerHandle.recv_reply",), (EST,), "self_ms", "estimate"),
]


def _traced_layers(tracer: Tracer, *, estimates: int, events: int) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for metric, names, phases, statistic, per in _TRACED:
        records = [tracer.get(name, phases) for name in names]
        calls = sum(record.calls for record in records)
        amount = {
            "self_ms": sum(record.self_s for record in records) * 1e3,
            "calls": calls,
            "measure": sum(record.measure for record in records),
            "measure_ms": sum(record.measure for record in records) * 1e3,
        }[statistic]
        denominator = {"estimate": estimates, "event": events, "kevent": events / 1000.0,
                       "call": calls}[per]
        values[metric] = amount / denominator if denominator else 0.0
    return values


def _estimator_internals(details: Sequence[Tuple[float, Dict[str, Any], int]]) -> Dict[str, float]:
    """SampleL effort, δ hits and useful/attempted pairs from ``Estimate.details``.

    ``details`` holds ``(τ, details, n)`` per estimate; ``m_H = n`` pairs
    are drawn from stratum H whenever it is non-empty (§5.1 default).
    """

    def mean(values: List[float]) -> float:
        return float(np.mean(values)) if values else 0.0

    def samplel(tau: Optional[float] = None) -> float:
        return mean([d.get("samples_taken_l", 0) for t, d, _n in details if tau in (None, t)])

    sampled = sum((n if d.get("num_collision_pairs", 0) > 0 else 0) + d.get("samples_taken_l", 0)
                  for _, d, n in details)
    true = sum(d.get("true_in_sample_h", 0) + d.get("true_in_sample_l", 0)
               for _, d, _n in details)
    return {
        "core.samplel_pairs_per_estimate": samplel(),
        "core.samplel_pairs_per_estimate.tau_0_2": samplel(0.2),
        "core.samplel_pairs_per_estimate.tau_0_9": samplel(0.9),
        "core.samplel_delta_reached_ratio":
            mean([float(bool(d.get("reached_answer_threshold"))) for _, d, _n in details]),
        "core.true_pairs_per_sampled_pair": true / sampled if sampled else 0.0,
    }


def _layers(tracer: Tracer, run: _Run) -> Dict[str, float]:
    """Every per-layer metric the tracer and the run's samples provide (0 elsewhere)."""
    layers = {metric.name: 0.0 for metric in M.PER_LAYER}
    layers.update(_traced_layers(tracer, estimates=len(run.active), events=run.traced_events))
    layers.update(_estimator_internals(run.details))
    wall = sum(run.traced_wall)
    layers["trace.coverage"] = tracer.total_self_s() / wall if wall else 0.0
    if run.active and run.inactive:
        layers["trace.overhead"] = M.median(run.active) / M.median(run.inactive)
    if M.samples_beyond(len(run.estimates), M.TAIL_PERCENTILE) < 10:
        print(f"ledger: only {len(run.estimates)} estimates; p{M.TAIL_PERCENTILE} has "
              "fewer than ten samples beyond it", file=sys.stderr)
    layers["op.estimate.p90_ms"] = M.percentile(run.estimates, M.TAIL_PERCENTILE) * 1e3
    layers["op.ingest.p50_ms"] = M.percentile(run.untraced_ingests, 50) * 1e3
    layers["op.ingest.p95_ms"] = M.percentile(run.untraced_ingests, 95) * 1e3
    layers["op.estimate_exact.p50_ms"] = M.median(run.exacts) * 1e3
    return layers


class _Tracing:
    """A run's tracer, installed only when the run is traced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.tracer = Tracer()
        self._uninstall: Optional[Callable[[], None]] = None

    def __enter__(self) -> "_Tracing":
        if self.traced:
            self._uninstall = install(self.tracer)
        return self

    def __exit__(self, *exc: Any) -> None:
        if self._uninstall is not None:
            self._uninstall()
            self._uninstall = None

    def phase(self, name: str, index: int) -> Any:
        """Even-numbered operations are traced in a traced run."""
        return self.tracer.active(name if self.traced and index % 2 == 0 else None)

    def unreached(self, workload: str) -> List[str]:
        if not self.traced:
            return []
        return [f"wrapped layer {name} was never called (renamed import site or call path?)"
                for name in uncalled(self.tracer, workload)]


def _stop_helper_processes() -> None:
    """Reap the forkserver and resource tracker the process backend started.

    Both would otherwise outlive the run: the tracker only exits once
    every holder of its pipe has exited, the workload process included.
    The forkserver goes first because it holds the tracker's pipe too.
    """
    from multiprocessing import forkserver, resource_tracker

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# ----------------------------------------------------------------------
# static_query
# ----------------------------------------------------------------------
def _static_extras(engine: JoinEstimationEngine, collection: VectorCollection) -> Dict[str, float]:
    """The §6.2 runtime row per estimator flavour and accuracy against the exact join."""
    extras: Dict[str, float] = {}
    for flavor, key in FLAVORS.items():
        engine.estimate(EstimateRequest(0.7, seed=0, estimator=flavor))  # builds it
        times = []
        for s in range(5):
            started = clock()
            engine.estimate(EstimateRequest(0.7, seed=s, estimator=flavor))
            times.append(clock() - started)
        extras[f"core.{key}.estimate_ms"] = M.median(times) * 1e3
    truths = exact_join_sizes(collection, list(STATIC_TAUS))
    errors = [
        abs(engine.estimate(EstimateRequest(tau, seed=s)).value - truth) / truth
        for tau, truth in zip(STATIC_TAUS, truths) if truth > 0
        for s in ACCURACY_SEEDS
    ]
    extras["accuracy.rel_error_p50"] = M.median(errors)
    return extras


def static_query(seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()) -> Outcome:
    """Read-only LSH-SS estimates on the static shape, τ round-robin {0.2, 0.5, 0.9}."""
    collection = make_dblp_like(sizes.static_n, random_state=seed).collection
    n = collection.size
    config = EngineConfig(backend="static", num_hashes=NUM_HASHES, seed=seed,
                          dimension=collection.dimension)
    segments = sizes.segments
    ops = per_segment_ops(STATIC, seconds, sizes)
    _settle_inputs()

    def open_engine() -> JoinEstimationEngine:
        engine = JoinEstimationEngine(config).open()
        engine.ingest(collection)
        engine.quiesce()  # builds the LSH index
        return engine

    run = _Run()
    extras: Dict[str, float] = {}
    with _Tracing(traced) as tracing:
        for segment in range(segments):
            engine = run.timed_setup(open_engine)
            try:
                for i in range(WARMUP_OPS):
                    engine.estimate(EstimateRequest(STATIC_TAUS[i % 3], seed=WARMUP_SEED + i))
                started = clock()
                for i in range(ops):
                    request = EstimateRequest(STATIC_TAUS[i % 3], seed=segment * ops + i)
                    with tracing.phase(EST, i):
                        op_started = clock()
                        result = engine.estimate(request)
                        elapsed = clock() - op_started
                    run.estimate(i, elapsed, result, n)
                run.wall += clock() - started
                if segment == segments - 1:
                    run.rss_mb = M.peak_rss_mb()
                    if traced:
                        extras = _static_extras(engine, collection)
            finally:
                engine.close()
    run.problems += tracing.unreached(STATIC)

    # §6.2: an estimate must cost far less than executing the join
    join_started = clock()
    exact_join_size(collection, 0.7)
    join_ms = (clock() - join_started) * 1e3
    lsh_ss_ms = M.median(run.estimates) * 1e3
    if not lsh_ss_ms < join_ms:
        run.problems.append(f"LSH-SS ({lsh_ss_ms:.2f} ms) is not faster than the exact join "
                            f"({join_ms:.2f} ms)")

    layers: Dict[str, float] = {}
    if traced:
        run.traced_wall = run.active
        layers = _layers(tracing.tracer, run)
        layers.update(extras)
        layers["join.exact_join_size.ms"] = join_ms
    return Outcome(run.end_to_end(), layers, attempted=len(run.estimates), failed=0,
                   problems=run.problems)


# ----------------------------------------------------------------------
# churn_streaming / churn_process
# ----------------------------------------------------------------------
def _check_against_reference(run: _Run, config: EngineConfig, collection: VectorCollection,
                             batches: Sequence[List[Any]], served: Dict[int, float],
                             served_size: int, traced: bool) -> List[float]:
    """Bit-identity with a direct in-process streaming engine fed the same events.

    In a traced run the replay also stops at five checkpoints and
    returns the relative errors of seeded exact-mode estimates against
    the exact join there (the accuracy samples).
    """
    checkpoints = ([len(batches) * k // ACCURACY_CHECKPOINTS
                    for k in range(1, ACCURACY_CHECKPOINTS + 1)] if traced else [])
    reference = JoinEstimationEngine(
        EngineConfig(backend="streaming", num_hashes=config.num_hashes, seed=config.seed,
                     dimension=config.dimension)
    ).open()

    def exact(seed: int) -> float:
        return reference.estimate(EstimateRequest(CHURN_TAU, mode="exact", seed=seed)).value

    errors: List[float] = []
    try:
        reference.ingest(collection)
        for applied, batch in enumerate(batches, start=1):
            reference.ingest(batch)
            if applied in checkpoints:
                live, _ids = reference.backend.index.to_collection()
                truth = exact_join_size(live, CHURN_TAU)
                if truth > 0:
                    errors += [abs(exact(s) - truth) / truth for s in ACCURACY_SEEDS]
        if served_size != reference.size:
            run.problems.append(f"size {served_size} != direct streaming engine's "
                                f"{reference.size}")
        for s, value in served.items():
            if value != exact(s):
                run.problems.append(f"exact estimate seed {s}: {value!r} != direct streaming "
                                    f"engine's {exact(s)!r}")
    finally:
        reference.close()
    return errors


def _router_rows_per_s(collection: VectorCollection, seed: int) -> Dict[str, float]:
    """Wall-clock ShardRouter ingest at 4 shards: default thread pool vs serial."""
    rows = [collection.row_dict(i) for i in range(collection.size)]
    result = {}
    for label, workers in (("threads", None), ("serial", 0)):
        rates = []
        for _ in range(ROUTER_ROUNDS):
            index = ShardedMutableIndex(collection.dimension, num_shards=SERVE_SHARDS,
                                        num_hashes=NUM_HASHES, random_state=seed + 1)
            router = ShardRouter(index, max_workers=workers)
            started = clock()
            for row in rows:
                router.insert(row)
            router.flush()
            rates.append(len(rows) / (clock() - started))
            router.close()
        result[f"shard.ShardRouter.rows_per_s.{label}"] = M.median(rates)
    return result


def _churn_in_process(workload: str, backend: str, options: Dict[str, Any], seed: int,
                      seconds: float, traced: bool, sizes: Sizes) -> Outcome:
    collection = make_nyt_like(sizes.churn_n, random_state=seed).collection
    config = EngineConfig(backend=backend, num_hashes=NUM_HASHES, seed=seed,
                          dimension=collection.dimension, options=options)
    segments = sizes.segments
    stream = ChurnStream(collection, seed)
    warmup = [stream.next_batch() for _ in range(WARMUP_OPS // 2)]
    batches = [stream.next_batch() for _ in range(per_segment_ops(workload, seconds, sizes))]
    _settle_inputs()

    def open_engine() -> JoinEstimationEngine:
        engine = JoinEstimationEngine(config).open()
        try:
            engine.ingest(collection)
            engine.flush()
            engine.quiesce()
        except BaseException:
            engine.close()  # reaps the workers of a half-built deployment
            raise
        return engine

    # every segment replays the same batches from the same bulk load
    run = _Run()
    try:
        with _Tracing(traced) as tracing:
            for segment in range(segments):
                engine = run.timed_setup(open_engine)
                try:
                    for i, batch in enumerate(warmup):
                        engine.ingest(batch)
                        engine.flush()
                        engine.estimate(EstimateRequest(CHURN_TAU, seed=WARMUP_SEED + i))
                    started = clock()
                    for b, batch in enumerate(batches):
                        with tracing.phase(ING, b):
                            op_started = clock()
                            engine.ingest(batch)
                            engine.flush()
                            ingest_elapsed = clock() - op_started
                        with tracing.phase(EST, b):
                            op_started = clock()
                            result = engine.estimate(EstimateRequest(CHURN_TAU, seed=b))
                            estimate_elapsed = clock() - op_started
                        run.ingests.append(ingest_elapsed)
                        run.estimate(b, estimate_elapsed, result, result.details["n"])
                        traced_op = [ingest_elapsed, estimate_elapsed]
                        if b % EXACT_EVERY == EXACT_EVERY - 1:
                            with tracing.phase(EXACT, b):
                                op_started = clock()
                                exact = engine.estimate(
                                    EstimateRequest(EXACT_TAU, mode="exact", seed=b))
                                run.exacts.append(clock() - op_started)
                            traced_op.append(run.exacts[-1])
                            run.check(exact, exact.details["n"])
                        if b % 2 == 0:
                            run.traced_wall += traced_op
                            run.traced_events += len(batch)
                        else:
                            run.untraced_ingests.append(ingest_elapsed)
                    run.wall += clock() - started
                    if segment == segments - 1:
                        run.rss_mb = M.peak_rss_mb()
                        served = {s: engine.estimate(
                            EstimateRequest(CHURN_TAU, mode="exact", seed=s)).value
                            for s in IDENTITY_SEEDS}
                        served_size = engine.size
                finally:
                    engine.close()
    finally:
        if backend == "process":
            _stop_helper_processes()
    run.problems += tracing.unreached(workload)
    errors = _check_against_reference(run, config, collection, warmup + batches, served,
                                      served_size, traced)

    layers: Dict[str, float] = {}
    if traced:
        layers = _layers(tracing.tracer, run)
        layers["accuracy.rel_error_p50"] = M.median(errors)
        if workload == STREAMING:
            layers.update(_router_rows_per_s(collection, seed))
    attempted = len(run.ingests) + len(run.estimates) + len(run.exacts)
    return Outcome(run.end_to_end(), layers, attempted=attempted, failed=0,
                   problems=run.problems)


def churn_streaming(seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()) -> Outcome:
    """Write-heavy churn on the single-node streaming shape."""
    return _churn_in_process(STREAMING, "streaming", {}, seed, seconds, traced, sizes)


def churn_process(seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()) -> Outcome:
    """The same churn through the multi-process cluster (2 spawned workers)."""
    return _churn_in_process(PROCESS, "process", {"shards": PROCESS_WORKERS}, seed, seconds,
                             traced, sizes)


# ----------------------------------------------------------------------
# churn_serve
# ----------------------------------------------------------------------
class _Daemon:
    """One ``repro serve`` subprocess over the sharded backend.

    The config reaches the daemon as an anonymous in-memory file
    (``memfd``) passed by descriptor, so the run writes no file at all.
    """

    def __init__(self, config: EngineConfig) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        fd = os.memfd_create("engine.json")
        try:
            os.write(fd, (config.to_json() + "\n").encode("utf-8"))
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--config", f"/proc/self/fd/{fd}",
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT, pass_fds=(fd,),
            )
        finally:
            os.close(fd)
        line = self.process.stdout.readline()
        match = re.match(r"serving on ([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"no readiness line from repro serve, got {line!r}")
        self.address = (match.group(1), int(match.group(2)))

    def stop(self) -> None:
        """Kill and reap the daemon.

        Not SIGTERM: the graceful drain waits out a 10 s acceptor join
        per daemon (``accept()`` does not wake when the listener
        closes), which would dominate the run.  The drain itself is
        checked by ``scripts/serve_smoke.py``; here every acknowledged
        write is checked through the bit-identity comparison instead.
        """
        self.process.kill()
        self.process.communicate()


def _serve_counters(stats: Dict[str, Any]) -> Dict[str, float]:
    """The daemon's cumulative counters this ledger reads from ``ServeClient.stats()``."""
    snapshot = stats["engine"]["metrics"]
    values: Dict[str, float] = {}
    for entry in snapshot["histograms"]:
        name = entry["name"]
        if name == "serve_request_seconds":
            name += "." + entry["labels"].get("op", "")
        values[name + ".sum"] = values.get(name + ".sum", 0.0) + entry["sum"]
        values[name + ".count"] = values.get(name + ".count", 0.0) + entry["count"]
    for entry in snapshot["counters"]:
        values[entry["name"]] = values.get(entry["name"], 0.0) + entry["value"]
    return values


def _serve_layers(deltas: Dict[str, float], run: _Run, events: int) -> Dict[str, float]:
    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    server_ms = ratio(deltas.get("serve_request_seconds.estimate.sum", 0.0),
                      deltas.get("serve_request_seconds.estimate.count", 0.0)) * 1e3
    return {
        "serve.request.estimate.server_ms": server_ms,
        "serve.request.ingest.server_ms": ratio(
            deltas.get("serve_request_seconds.ingest.sum", 0.0),
            deltas.get("serve_request_seconds.ingest.count", 0.0)) * 1e3,
        "serve.wire_ms_per_estimate": float(np.mean(run.estimates)) * 1e3 - server_ms,
        "serve.engine_applies_per_event": ratio(deltas.get("engine_ingested_events_total", 0.0),
                                                events),
        "serve.busy_rejections": deltas.get("serve_rejected_total", 0.0),
        "serve.router_flush_ms_per_event": ratio(
            deltas.get("router_flush_seconds.sum", 0.0) * 1e3, events),
        # the daemon's own request time against what the reader waited
        "trace.coverage": ratio(deltas.get("serve_request_seconds.estimate.sum", 0.0),
                                sum(run.estimates)),
        "op.ingest.p50_ms": M.percentile(run.ingests, 50) * 1e3,
        "op.ingest.p95_ms": M.percentile(run.ingests, 95) * 1e3,
    }


def churn_serve(seed: int, seconds: float, traced: bool, sizes: Sizes = Sizes()) -> Outcome:
    """The churn log through a ``repro serve`` daemon: a writer and a reader in lockstep.

    Each round the writer sends one batch and the reader one ``auto``
    estimate at the same moment, each on its own connection; the round
    ends when both have their reply.  Every estimate thus runs beside a
    commit, the same way in every round.  Free-running clients made the
    share of estimates that overlapped a commit swing from run to run:
    over ten seeds the estimate p50 spread was 45-57 % with an open-loop
    writer at 10 batches/s, and 27 % with two independent closed loops.
    """
    collection = make_nyt_like(sizes.churn_n, random_state=seed).collection
    config = EngineConfig(backend="sharded", num_hashes=NUM_HASHES, seed=seed,
                          dimension=collection.dimension, options={"num_shards": SERVE_SHARDS})
    segments = sizes.segments
    stream = ChurnStream(collection, seed)
    warmup = [stream.next_batch() for _ in range(WARMUP_OPS // 2)]
    batches = [stream.next_batch() for _ in range(per_segment_ops(SERVE, seconds, sizes))]
    _settle_inputs()

    def open_daemon() -> Tuple[_Daemon, ServeClient]:
        daemon = _Daemon(config)
        try:
            client = connect_with_retry(daemon.address, retries=0)
            client.ingest(collection)
            client.flush()
        except BaseException:
            daemon.stop()
            raise
        return daemon, client

    run = _Run()
    refused = {EST: 0, ING: 0}  # busy replies; each thread counts its own
    deltas: Dict[str, float] = {}
    applied: List[List[Any]] = []
    with _Tracing(traced) as tracing:
        for segment in range(segments):
            daemon, client = run.timed_setup(open_daemon)
            try:
                for i, batch in enumerate(warmup):
                    client.ingest(batch)
                    client.estimate(EstimateRequest(CHURN_TAU, seed=WARMUP_SEED + i))
                client.flush()
                before = _serve_counters(client.stats())
                client.close()  # the load itself uses exactly two connections
                applied = list(warmup)
                rounds = threading.Barrier(2, timeout=60)
                reader_errors: List[BaseException] = []

                def reader() -> None:
                    try:
                        with ServeClient(daemon.address, retries=0) as reads:
                            for k in range(len(batches)):
                                rounds.wait()
                                try:
                                    with tracing.phase(EST, k):
                                        op_started = clock()
                                        result = reads.estimate(
                                            EstimateRequest(CHURN_TAU, seed=k))
                                        elapsed = clock() - op_started
                                except ServerBusyError:
                                    refused[EST] += 1
                                    continue
                                run.estimate(k, elapsed, result, result.details["n"])
                    except BaseException as error:  # surfaced as a failed check below
                        rounds.abort()
                        reader_errors.append(error)

                thread = threading.Thread(target=reader, name="ledger-reader")
                with ServeClient(daemon.address, retries=0) as writes:
                    thread.start()
                    started = clock()
                    try:
                        for i, batch in enumerate(batches):
                            rounds.wait()
                            try:
                                with tracing.phase(ING, i):
                                    op_started = clock()
                                    writes.ingest(batch)
                                    elapsed = clock() - op_started
                            except ServerBusyError:
                                refused[ING] += 1
                                continue
                            run.ingests.append(elapsed)
                            applied.append(batch)
                            run.traced_events += len(batch) if i % 2 == 0 else 0
                    except threading.BrokenBarrierError:
                        pass  # the reader failed; its error is reported below
                    except BaseException:
                        rounds.abort()
                        raise
                    finally:
                        thread.join(timeout=120)
                    run.wall += clock() - started
                if thread.is_alive():
                    run.problems.append("reader thread did not finish")
                run.problems += [f"reader failed: {error!r}" for error in reader_errors]

                client = ServeClient(daemon.address, retries=0)
                client.flush()  # replays the last batch into the retired engine
                for name, value in _serve_counters(client.stats()).items():
                    deltas[name] = deltas.get(name, 0.0) + value - before.get(name, 0.0)
                if segment == segments - 1:
                    run.rss_mb = M.peak_rss_mb()
                    served = {s: client.estimate(CHURN_TAU, seed=s, mode="exact").value
                              for s in IDENTITY_SEEDS}
                    served_size = int(client.describe()["describe"]["size"])
            finally:
                client.close()
                daemon.stop()
    run.problems += tracing.unreached(SERVE)
    errors = _check_against_reference(run, config, collection, applied, served, served_size,
                                      traced)

    layers: Dict[str, float] = {}
    if traced:
        layers = _layers(tracing.tracer, run)
        events = BATCH_EVENTS * len(run.ingests)
        layers.update(_serve_layers(deltas, run, events))
        layers["accuracy.rel_error_p50"] = M.median(errors)
    attempted = len(run.ingests) + refused[ING] + len(run.estimates) + refused[EST]
    return Outcome(run.end_to_end(), layers, attempted=attempted,
                   failed=sum(refused.values()), problems=run.problems)


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    STATIC: static_query,
    STREAMING: churn_streaming,
    PROCESS: churn_process,
    SERVE: churn_serve,
}
