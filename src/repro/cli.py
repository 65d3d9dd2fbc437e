"""Command-line interface for quick estimates and sweeps.

The CLI wraps the most common workflows so the library can be exercised
without writing code::

    python -m repro estimate --profile dblp --num-vectors 2000 --threshold 0.8
    python -m repro estimate --config engine.json --threshold 0.8
    python -m repro sweep    --profile nyt  --num-vectors 1500 --trials 5
    python -m repro probabilities --profile dblp --num-vectors 2000
    python -m repro stream --events updates.jsonl --threshold 0.8 --batch-size 50

The serving commands (``estimate``, ``stream``, ``shard``,
``rebalance``) all construct a
:class:`~repro.engine.JoinEstimationEngine` — either from a declarative
``--config`` JSON file (an :class:`~repro.engine.EngineConfig`) or from
the legacy construction flags — so every deployment shape goes through
the same front door instead of four bespoke construction branches.

Sub-commands
------------
``estimate``
    Build the chosen synthetic profile, ingest it into an engine (any
    backend: static by default, or whatever ``--config`` declares), and
    print one estimate per requested estimator next to the exact join
    size.
``sweep``
    Run the full accuracy sweep (the Figure-2 methodology) over a
    threshold grid and print the error/variance table.
``probabilities``
    Print the Table-1 stratum probabilities for the chosen profile.
``stream``
    Replay a JSONL change log (see :mod:`repro.streaming.events` for the
    format) through a mutable engine backend and print one incremental
    estimate after every batch of updates and at every checkpoint.
``shard``
    Replay the same JSONL format through a sharded engine backend
    (router → shards → merge), printing LSH-SS estimates and the
    per-shard sizes; the final engine state can be checkpointed with
    ``--snapshot``.
``rebalance``
    Resize a checkpointed sharded engine, moving only the bucket keys
    whose shard changes; without ``--output`` it is a dry run that only
    prints the migration plan.
``worker``
    Run one standalone shard worker of the multi-process cluster
    backend: listen on ``--listen host:port`` and serve coordinator
    sessions (a ``process``-backend engine with ``options.addresses``
    naming this endpoint).  ``repro shard --backend process`` runs the
    coordinator side with locally spawned workers.
``stats``
    Open an engine from ``--config`` (any backend), optionally drive
    some work through it (``--events`` replay for mutable backends, a
    synthetic profile ingest for ``static``, an estimate at
    ``--threshold``), and print the :mod:`repro.obs` stats surface:
    counters, latency histograms, and — for the ``process`` backend —
    per-worker rows gathered in one batched round trip.
``serve``
    Run the estimation daemon (:mod:`repro.serve`): listen on
    ``--listen host:port``, serve concurrent estimate requests while a
    single writer ingests, with one engine behind a readers–writer gate
    (a commit holds reads off only while it applies its batch), bounded
    queues, and graceful drain on SIGTERM/SIGINT.  Talk to it with
    :class:`repro.serve.ServeClient` (see
    ``examples/query_optimizer.py``).
``lint``
    Run reprolint (:mod:`repro.analysis`): the repo-specific static
    analysis enforcing the determinism and locking contracts — R001 seed
    discipline, R002 lock-guard discipline, R005 the pickle boundary,
    R006 ``__all__`` parity, R007 broad excepts and R010 lock leaks.
    Exit code 0 means no un-pragma'd findings.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.datasets import make_dblp_like, make_nyt_like, make_pubmed_like
from repro.engine import EngineConfig, JoinEstimationEngine, StaticBackend
from repro.errors import ReproError, ValidationError
from repro.evaluation import ExperimentRunner, empirical_stratum_probabilities
from repro.evaluation.report import format_table, series_table
from repro.join.histogram import SimilarityHistogram
from repro.lsh import LSHIndex

_PROFILES = {
    "dblp": make_dblp_like,
    "nyt": make_nyt_like,
    "pubmed": make_pubmed_like,
}

# the static backend's registry is the single source of estimator flavors
_ESTIMATOR_CHOICES = StaticBackend.estimator_names()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Similarity join size estimation using LSH (VLDB 2011 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--profile", choices=sorted(_PROFILES), default="dblp",
                         help="synthetic corpus profile (default: dblp)")
        sub.add_argument("--num-vectors", type=int, default=2000,
                         help="collection size n (default: 2000)")
        sub.add_argument("--num-hashes", type=int, default=20,
                         help="hash functions per LSH table, k (default: 20)")
        sub.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")

    def add_engine_config(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--config", default=None,
                         help="JSON EngineConfig file describing the engine "
                              "(backend kind + options); supersedes the "
                              "construction flags (--num-hashes, --seed, "
                              "backend-specific flags)")

    estimate = subparsers.add_parser("estimate", help="one estimate per estimator at a threshold")
    add_common(estimate)
    add_engine_config(estimate)
    estimate.add_argument("--threshold", type=float, required=True, help="similarity threshold τ")
    estimate.add_argument(
        "--estimators",
        nargs="+",
        choices=_ESTIMATOR_CHOICES,
        default=None,
        help="estimators to run (static backend only; default: lsh-ss rs)",
    )
    estimate.add_argument("--no-exact", action="store_true",
                          help="skip computing the exact join size")

    sweep = subparsers.add_parser("sweep", help="accuracy sweep over a threshold grid")
    add_common(sweep)
    sweep.add_argument("--thresholds", type=float, nargs="+",
                       default=[0.1, 0.3, 0.5, 0.7, 0.9])
    sweep.add_argument("--trials", type=int, default=5, help="trials per cell (default: 5)")
    sweep.add_argument(
        "--estimators",
        nargs="+",
        choices=_ESTIMATOR_CHOICES,
        default=["lsh-ss", "lsh-ss-d", "rs"],
    )

    probabilities = subparsers.add_parser(
        "probabilities", help="Table-1 stratum probabilities for a profile"
    )
    add_common(probabilities)
    probabilities.add_argument("--thresholds", type=float, nargs="+",
                               default=[0.1, 0.3, 0.5, 0.7, 0.9])

    stream = subparsers.add_parser(
        "stream", help="incremental estimates over a JSONL change log"
    )
    add_engine_config(stream)
    stream.add_argument("--events", required=True,
                        help="path to a JSONL change log (insert/delete/checkpoint events)")
    stream.add_argument("--threshold", type=float, default=0.8,
                        help="similarity threshold τ (default: 0.8)")
    stream.add_argument("--dimension", type=int, default=None,
                        help="vector dimensionality; inferred from the first dense "
                             "insert when omitted")
    stream.add_argument("--batch-size", type=int, default=100,
                        help="emit an estimate after this many insert/delete events "
                             "(default: 100); checkpoints always emit")
    stream.add_argument("--mode", choices=("auto", "exact", "reservoir"), default="auto",
                        help="estimation path: repaired reservoirs (auto/reservoir) "
                             "or fresh stratified sampling (exact)")
    stream.add_argument("--staleness-budget", type=float, default=0.25,
                        help="reservoir staleness fraction triggering partial "
                             "resampling (default: 0.25)")
    stream.add_argument("--num-hashes", type=int, default=20,
                        help="hash functions per LSH table, k (default: 20)")
    stream.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")

    shard = subparsers.add_parser(
        "shard", help="sharded incremental estimates over a JSONL change log"
    )
    add_engine_config(shard)
    shard.add_argument("--events", required=True,
                       help="path to a JSONL change log (insert/delete/checkpoint events)")
    shard.add_argument("--shards", type=int, default=4,
                       help="number of bucket-key-partitioned shards S (default: 4)")
    shard.add_argument("--threshold", type=float, default=0.8,
                       help="similarity threshold τ (default: 0.8)")
    shard.add_argument("--dimension", type=int, default=None,
                       help="vector dimensionality; inferred from the first dense "
                            "insert when omitted")
    shard.add_argument("--batch-size", type=int, default=100,
                       help="router ingest batch size; an estimate is emitted per "
                            "flushed batch (default: 100)")
    shard.add_argument("--mode", choices=("auto", "exact", "reservoir"), default="auto",
                       help="estimation mode, as for 'repro stream': the facade's "
                            "repaired reservoirs (auto/reservoir) or fresh merged "
                            "SampleH/SampleL draws (exact, bit-identical to the "
                            "unsharded estimator) (default: auto)")
    shard.add_argument("--backend", choices=("sharded", "process"), default="sharded",
                       help="in-process shards (default) or one worker process "
                            "per shard (the repro.cluster coordinator)")
    shard.add_argument("--snapshot", default=None,
                       help="write the final engine state to this file")
    shard.add_argument("--num-hashes", type=int, default=20,
                       help="hash functions per LSH table, k (default: 20)")
    shard.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")

    rebalance = subparsers.add_parser(
        "rebalance",
        help="resize a checkpointed sharded engine",
    )
    rebalance.add_argument("--snapshot", required=True,
                           help="engine snapshot written by 'repro shard --snapshot'")
    rebalance.add_argument("--config", default=None,
                           help="JSON EngineConfig overriding the one the snapshot "
                                "carries (same backend kind), e.g. to restore a "
                                "process cluster onto different worker addresses")
    rebalance.add_argument("--shards", type=int, default=None,
                           help="target shard count S' (default: keep the current S)")
    rebalance.add_argument("--output", default=None,
                           help="write the rebalanced engine snapshot here; omitted "
                                "= dry run, print the migration plan only")
    rebalance.add_argument("--threshold", type=float, default=None,
                           help="optionally print a merged exact-mode estimate at τ "
                                "before and after the rebalance")
    rebalance.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")

    stats = subparsers.add_parser(
        "stats", help="observability snapshot of an engine (metrics + workers)"
    )
    stats.add_argument("--config", required=True,
                       help="JSON EngineConfig file describing the engine; any "
                            "backend (static/streaming/sharded/process)")
    stats.add_argument("--events", default=None,
                       help="JSONL change log to replay before collecting stats "
                            "(mutable backends only)")
    stats.add_argument("--threshold", type=float, default=None,
                       help="run one estimate at τ before collecting stats, so "
                            "the estimate-path instruments have samples")
    stats.add_argument("--dimension", type=int, default=None,
                       help="vector dimensionality when the config omits it and "
                            "there is no event log to infer it from")
    stats.add_argument("--batch-size", type=int, default=100,
                       help="replay batch size for --events (default: 100)")
    stats.add_argument("--profile", choices=sorted(_PROFILES), default="dblp",
                       help="synthetic corpus ingested for a 'static' engine "
                            "(default: dblp)")
    stats.add_argument("--num-vectors", type=int, default=500,
                       help="synthetic corpus size for a 'static' engine "
                            "(default: 500)")
    stats.add_argument("--seed", type=int, default=7, help="random seed (default: 7)")
    stats.add_argument("--json", action="store_true",
                       help="dump the full stats dict as JSON instead of the "
                            "human-readable summary")

    serve = subparsers.add_parser(
        "serve",
        help="run the concurrent estimation daemon (repro.serve)",
    )
    serve.add_argument("--config", required=True,
                       help="JSON EngineConfig file describing the engine the "
                            "daemon wraps (any backend, including 'process')")
    serve.add_argument("--listen", default="127.0.0.1:0",
                       help="host:port to listen on; port 0 picks a free port "
                            "(printed in the readiness line; default: "
                            "127.0.0.1:0)")
    serve.add_argument("--token", default=None,
                       help="shared secret clients must present (recommended on "
                            "anything but localhost; the protocol is pickle — "
                            "trusted links only)")
    serve.add_argument("--dimension", type=int, default=None,
                       help="vector dimensionality when the config omits it")
    serve.add_argument("--queue-depth", type=int, default=256,
                       help="bound on queued-but-uncommitted write requests; a "
                            "full queue answers busy/retry-after (default: 256)")
    serve.add_argument("--max-estimates", type=int, default=16,
                       help="bound on in-flight estimate requests (default: 16)")
    serve.add_argument("--epoch-events", type=int, default=512,
                       help="soft cap on events batched into one epoch commit "
                            "(default: 512)")

    worker = subparsers.add_parser(
        "worker",
        help="run one standalone shard worker for the 'process' cluster backend",
    )
    worker.add_argument("--listen", required=True,
                        help="host:port to listen on for coordinator sessions")
    worker.add_argument("--token", default=None,
                        help="shared secret a coordinator must present (recommended "
                             "on anything but localhost; the protocol is pickle — "
                             "trusted links only)")
    worker.add_argument("--once", action="store_true",
                        help="exit after the first coordinator session instead of "
                             "waiting for the next one")

    from repro.analysis import build_lint_parser

    lint = subparsers.add_parser(
        "lint",
        help="repo-specific static analysis (reprolint)",
        description="reprolint: enforce the determinism, locking, and "
                    "protocol contracts at parse time",
    )
    build_lint_parser(lint)
    return parser


# ----------------------------------------------------------------------
# engine construction (shared by estimate / stream / shard / rebalance)
# ----------------------------------------------------------------------
def _engine_config(
    args: argparse.Namespace,
    default_backend: str,
    *,
    dimension: Optional[int] = None,
    options: Optional[dict] = None,
) -> EngineConfig:
    """One EngineConfig for any serving command: ``--config`` file or flags."""
    if getattr(args, "config", None):
        config = EngineConfig.from_file(args.config)
        if config.dimension is None and dimension is not None:
            config = config.replace(dimension=dimension)
        return config
    return EngineConfig(
        backend=default_backend,
        num_hashes=args.num_hashes,
        seed=args.seed,
        dimension=dimension,
        options=options or {},
    )


def _build_collection(args: argparse.Namespace):
    factory = _PROFILES[args.profile]
    corpus = factory(num_vectors=args.num_vectors, random_state=args.seed)
    return corpus.collection


def _require_mutable(config: EngineConfig, command: str) -> None:
    if config.backend == "static":
        raise ValidationError(
            f"'repro {command}' replays mutations; the 'static' backend is "
            "immutable — use a 'streaming' or 'sharded' engine config"
        )


def _command_estimate(args: argparse.Namespace) -> str:
    collection = _build_collection(args)
    config = _engine_config(args, "static", dimension=collection.dimension)
    if config.backend != "static" and args.estimators is not None:
        raise ValidationError(
            f"--estimators selects flavors of the 'static' backend; the "
            f"{config.backend!r} backend serves a single estimator"
        )
    rows: List[List[object]] = []
    with JoinEstimationEngine(config) as engine:
        engine.ingest(collection)
        if config.backend == "static":
            # the static backend serves every estimator flavor of the paper;
            # with no explicit list, a config-declared default flavor wins
            # over the CLI's lsh-ss/rs pair (None = backend's own default)
            names = args.estimators
            if names is None:
                names = [None] if "estimator" in config.options else ["lsh-ss", "rs"]
            for name in names:
                result = engine.estimate(args.threshold, seed=args.seed, estimator=name)
                rows.append([result.estimator, result.value])
        else:
            result = engine.estimate(args.threshold, seed=args.seed)
            rows.append([result.estimator, result.value])
    if not args.no_exact:
        from repro.join import exact_join_size

        rows.append(["exact join", float(exact_join_size(collection, args.threshold))])
    return format_table(
        ["method", f"estimated J(τ={args.threshold})"], rows, float_format="{:.1f}",
        title=f"{args.profile} profile, n={collection.size}, k={config.num_hashes}, "
        f"backend={config.backend}",
    )


def _command_sweep(args: argparse.Namespace) -> str:
    collection = _build_collection(args)
    index = LSHIndex(collection, num_hashes=args.num_hashes, random_state=args.seed + 1)
    estimators = [
        StaticBackend.build_estimator(name, index.primary_table, collection)
        for name in args.estimators
    ]
    runner = ExperimentRunner(
        collection,
        thresholds=args.thresholds,
        num_trials=args.trials,
        random_state=args.seed,
    )
    records = runner.run(estimators)
    return series_table(
        records,
        title=f"Accuracy sweep — {args.profile} profile, n={collection.size}, "
        f"k={args.num_hashes}, {args.trials} trials",
    )


def _command_probabilities(args: argparse.Namespace) -> str:
    collection = _build_collection(args)
    index = LSHIndex(collection, num_hashes=args.num_hashes, random_state=args.seed + 1)
    histogram = SimilarityHistogram(collection)
    rows = empirical_stratum_probabilities(
        index.primary_table, args.thresholds, histogram=histogram
    )
    return format_table(
        ["tau", "P(T)", "P(T|H)", "P(H|T)", "P(T|L)", "J"],
        [
            [f"{row.threshold:.2f}", row.probability_true, row.probability_true_given_h,
             row.probability_h_given_true, row.probability_true_given_l, row.join_size]
            for row in rows
        ],
        title=f"Stratum probabilities — {args.profile} profile, n={collection.size}, "
        f"k={args.num_hashes}",
    )


def _load_event_log(args: argparse.Namespace):
    from repro.streaming import ChangeLog

    if args.batch_size < 1:
        raise ValidationError(f"--batch-size must be >= 1, got {args.batch_size}")
    if not Path(args.events).is_file():
        raise ValidationError(f"event log not found: {args.events}")
    return ChangeLog.from_jsonl(args.events)


def _replay_log(engine: JoinEstimationEngine, log, batch_size: int, emit_row):
    """Drive a change log through an engine for the replay commands.

    Shared by ``stream`` and ``shard`` so checkpoint/batch semantics
    cannot diverge: checkpoints flush buffered writes and always emit
    (labelled), batches emit every ``batch_size`` mutations, and a final
    partial batch emits once at the end.  ``emit_row(event_number,
    label)`` renders one report row.  Returns ``(inserts, deletes)``.
    """
    from repro.streaming import Checkpoint, Delete, Insert

    inserts = deletes = pending = 0
    for event_number, event in enumerate(log, 1):
        if isinstance(event, Checkpoint):
            engine.flush()
            emit_row(event_number, event.label or "checkpoint")
            pending = 0
            continue
        engine.ingest(event)
        if isinstance(event, Insert):
            inserts += 1
        elif isinstance(event, Delete):
            deletes += 1
        pending += 1
        if pending >= batch_size:
            engine.flush()
            emit_row(event_number, f"batch of {pending}")
            pending = 0
    if pending:
        emit_row(len(log), f"final batch of {pending}")
    return inserts, deletes


def _command_stream(args: argparse.Namespace) -> str:
    log = _load_event_log(args)
    dimension = _infer_dimension(log, args.dimension)
    config = _engine_config(
        args, "streaming",
        dimension=dimension,
        options={"staleness_budget": args.staleness_budget},
    )
    _require_mutable(config, "stream")

    rows = []
    with JoinEstimationEngine(config) as engine:

        def emit_row(event_number: int, label: str) -> None:
            result = engine.estimate(
                args.threshold, seed=args.seed + event_number, mode=args.mode
            )
            stats = result.provenance.backend_details
            rows.append(
                [
                    event_number,
                    label,
                    stats["size"],
                    stats["num_collision_pairs"],
                    stats["num_non_collision_pairs"],
                    result.value,
                ]
            )

        inserts, deletes = _replay_log(engine, log, args.batch_size, emit_row)
    summary = (
        f"Streaming estimates — {args.events}: {inserts} inserts, {deletes} deletes, "
        f"τ={args.threshold}, k={config.num_hashes}, mode={args.mode}, "
        f"backend={config.backend}"
    )
    return format_table(
        ["event", "trigger", "n", "N_H", "N_L", f"estimate J(τ={args.threshold})"],
        rows,
        float_format="{:.1f}",
        title=summary,
    )


def _infer_dimension(log, explicit: Optional[int]) -> int:
    from repro.streaming import Insert

    if explicit is not None:
        return explicit
    for event in log:
        if isinstance(event, Insert) and not hasattr(event.vector, "items"):
            return len(event.vector)
    raise ValidationError(
        "--dimension is required when the log has no dense insert to infer it from"
    )


def _command_shard(args: argparse.Namespace) -> str:
    log = _load_event_log(args)
    dimension = _infer_dimension(log, args.dimension)
    config = _engine_config(
        args, args.backend,
        dimension=dimension,
        options={
            "num_shards": args.shards,
            "batch_size": args.batch_size,
        },
    )
    if config.backend not in ("sharded", "process"):
        raise ValidationError(
            f"'repro shard' needs a 'sharded' or 'process' engine config, "
            f"got {config.backend!r}"
        )

    rows = []
    with JoinEstimationEngine(config) as engine:

        def emit_row(event_number: int, label: str) -> None:
            result = engine.estimate(
                args.threshold, seed=args.seed + event_number, mode=args.mode
            )
            stats = result.provenance.backend_details
            rows.append(
                [
                    event_number,
                    label,
                    stats["size"],
                    "/".join(str(n) for n in stats["shard_sizes"]),
                    stats["num_collision_pairs"],
                    stats["num_non_collision_pairs"],
                    result.value,
                ]
            )

        inserts, deletes = _replay_log(engine, log, args.batch_size, emit_row)
        if args.snapshot:
            engine.snapshot(args.snapshot)
        num_shards = engine.backend.index.num_shards
        worker_lines: List[str] = []
        if config.backend == "process":
            # one batched stats round trip: per-worker ingest seconds as
            # reported by the reply envelope, plus the coordinator-side
            # time spent blocked on worker replies
            cluster_stats = engine.backend.index.stats()
            worker_lines.append("worker timings (coordinator-observed):")
            for row in cluster_stats["workers"]:
                worker_lines.append(
                    f"  shard {row['shard_id']}: pid={row['pid']} "
                    f"size={row.get('size', '?')} "
                    f"ingest={row['worker_ingest_seconds']:.4f}s "
                    f"blocked={row['blocked_seconds']:.4f}s"
                )
    summary = (
        f"Sharded streaming estimates — {args.events}: {inserts} inserts, "
        f"{deletes} deletes over {num_shards} shards, τ={args.threshold}, "
        f"k={config.num_hashes}, mode={args.mode}"
        + (f"; snapshot → {args.snapshot}" if args.snapshot else "")
    )
    table = format_table(
        ["event", "trigger", "n", "per-shard n", "N_H", "N_L",
         f"estimate J(τ={args.threshold})"],
        rows,
        float_format="{:.1f}",
        title=summary,
    )
    if worker_lines:
        table += "\n" + "\n".join(worker_lines)
    return table


def _command_rebalance(args: argparse.Namespace) -> str:
    with JoinEstimationEngine.restore(args.snapshot, config=args.config) as engine:
        if engine.config.backend not in ("sharded", "process"):
            raise ValidationError(
                f"'repro rebalance' needs a sharded or process engine, "
                f"got {engine.config.backend!r}"
            )
        cluster = engine.backend.index
        current_shards = cluster.num_shards
        target_shards = current_shards if args.shards is None else args.shards
        sizes_before = list(cluster.shard_sizes)
        estimate_before = estimate_after = None
        if args.threshold is not None:
            estimate_before = engine.estimate(args.threshold, seed=args.seed, mode="exact")
        if args.output is None:
            # dry run: plan from the facade's bucket table, touching no shard
            plan = engine.rebalance(num_shards=target_shards, dry_run=True)
            applied = "dry run — no state was changed (pass --output to apply)"
            sizes_after = None
        else:
            plan = engine.rebalance(num_shards=target_shards)
            cluster.check_invariants()
            sizes_after = list(cluster.shard_sizes)
            if args.threshold is not None:
                estimate_after = engine.estimate(args.threshold, seed=args.seed, mode="exact")
            engine.snapshot(args.output)
            applied = f"rebalanced engine written to {args.output}"
    rows = [
        ["shards", current_shards, target_shards],
        ["bucket keys", plan.total_keys, plan.total_keys],
        ["keys moved", "", plan.moved_keys],
        ["moved fraction", "", f"{plan.moved_fraction:.4f}"],
        ["vectors moved", "", plan.moved_vectors if args.output else "(dry run)"],
    ]
    if sizes_after is not None:
        rows.append(["per-shard n", "/".join(map(str, sizes_before)),
                     "/".join(map(str, sizes_after))])
    if estimate_before is not None:
        after_value = estimate_after.value if estimate_after is not None else "(dry run)"
        rows.append([f"exact J(τ={args.threshold})", estimate_before.value, after_value])
    return format_table(
        ["", "before", "after"],
        rows,
        title=f"Rebalance — {args.snapshot}: {applied}",
    )


def _render_metrics(metrics: dict) -> List[str]:
    """Human-readable lines for one ``MetricsSnapshot.to_dict()`` payload."""
    from repro.obs import format_metric_name, histogram_quantile

    def sort_key(entry):
        return (entry["name"], sorted(entry.get("labels", {}).items()))

    lines: List[str] = []
    for entry in sorted(metrics.get("counters", []), key=sort_key):
        name = format_metric_name(entry["name"], entry.get("labels", {}))
        lines.append(f"  {name} = {entry['value']:g}")
    for entry in sorted(metrics.get("gauges", []), key=sort_key):
        name = format_metric_name(entry["name"], entry.get("labels", {}))
        lines.append(f"  {name} = {entry['value']:g}")
    for entry in sorted(metrics.get("histograms", []), key=sort_key):
        name = format_metric_name(entry["name"], entry.get("labels", {}))
        if entry["count"]:
            bounds = tuple(entry["buckets"])
            mean = entry["sum"] / entry["count"]
            p50 = histogram_quantile(bounds, entry["counts"], 0.5)
            p99 = histogram_quantile(bounds, entry["counts"], 0.99)
            lines.append(
                f"  {name}: count={entry['count']} mean={mean * 1e3:.3f}ms "
                f"p50<={p50 * 1e3:.3f}ms p99<={p99 * 1e3:.3f}ms"
            )
        else:
            lines.append(f"  {name}: count=0")
    return lines


def _command_stats(args: argparse.Namespace) -> str:
    import json

    config = EngineConfig.from_file(args.config)
    log = collection = None
    if args.events:
        _require_mutable(config, "stats --events")
        log = _load_event_log(args)
        if config.dimension is None:
            config = config.replace(dimension=_infer_dimension(log, args.dimension))
    elif config.backend == "static":
        collection = _build_collection(args)
        if config.dimension is None:
            config = config.replace(dimension=collection.dimension)
    elif config.dimension is None and args.dimension is not None:
        config = config.replace(dimension=args.dimension)

    with JoinEstimationEngine(config) as engine:
        if log is not None:
            _replay_log(engine, log, args.batch_size, lambda _number, _label: None)
            engine.flush()
        elif collection is not None:
            engine.ingest(collection)
        if args.threshold is not None:
            engine.estimate(args.threshold, seed=args.seed)
        stats = engine.stats()
    if args.json:
        return json.dumps(stats, indent=2, sort_keys=True, default=str)

    lines = [f"Engine stats — {args.config}", f"backend: {stats['backend']}"]
    workers = stats.get("workers")
    if workers:
        lines.append("workers:")
        for row in workers:
            lines.append(
                f"  shard {row['shard_id']}: pid={row['pid']} "
                f"alive={row['alive']} size={row.get('size', '?')} "
                f"ingest={row['worker_ingest_seconds']:.4f}s "
                f"blocked={row['blocked_seconds']:.4f}s"
            )
    lines.append("metrics:")
    metric_lines = _render_metrics(stats.get("metrics", {}))
    lines.extend(metric_lines or ["  (no samples recorded)"])
    return "\n".join(lines)


def _command_serve(args: argparse.Namespace) -> str:
    import os
    import signal
    import threading

    from repro.serve import EstimationServer

    config = EngineConfig.from_file(args.config)
    if config.dimension is None and args.dimension is not None:
        config = config.replace(dimension=args.dimension)
    server = EstimationServer(
        config,
        listen=args.listen,
        token=args.token,
        queue_depth=args.queue_depth,
        max_estimates=args.max_estimates,
        epoch_events=args.epoch_events,
    ).start()
    stop = threading.Event()

    def handle_signal(_signum, _frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, handle_signal)
    signal.signal(signal.SIGINT, handle_signal)
    host, port = server.address
    # parseable readiness line: clients / CI scripts wait for it
    print(f"serving on {host}:{port} pid={os.getpid()} "
          f"backend={config.backend}", flush=True)
    stop.wait()
    print("draining…", flush=True)
    server.shutdown()  # StrandedWritesError (exit 2) if a commit failed
    return (
        f"drained cleanly at epoch {server.epoch}: no stranded writes "
        "(every acknowledged write was committed)"
    )


def _command_worker(args: argparse.Namespace) -> str:
    from repro.cluster import parse_address, serve

    def on_ready(bound) -> None:
        # parseable readiness line: coordinators / scripts wait for it
        print(f"worker listening on {bound[0]}:{bound[1]}", flush=True)

    serve(parse_address(args.listen), token=args.token, once=args.once, on_ready=on_ready)
    return "worker: session ended"


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "lint":
        # lint owns its exit-code semantics (1 = findings, 2 = usage)
        from repro.analysis import run_lint_from_args

        return run_lint_from_args(args)
    try:
        if args.command == "estimate":
            output = _command_estimate(args)
        elif args.command == "sweep":
            output = _command_sweep(args)
        elif args.command == "stream":
            output = _command_stream(args)
        elif args.command == "shard":
            output = _command_shard(args)
        elif args.command == "rebalance":
            output = _command_rebalance(args)
        elif args.command == "serve":
            output = _command_serve(args)
        elif args.command == "worker":
            output = _command_worker(args)
        elif args.command == "stats":
            output = _command_stats(args)
        else:
            output = _command_probabilities(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
