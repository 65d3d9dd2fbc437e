"""The ledger's metric declarations and the statistics shared by every mode.

``END_TO_END`` and ``PER_LAYER`` are the single source of the metric
names, units and regression bounds: the result line is built from them
(a workload that forgets or invents a metric fails loudly), ``--compare``
classifies against their bounds, and ``test_ledger.py`` pins them to the
repository's ``BENCHMARK.json`` in both directions.
"""

from __future__ import annotations

import json
import math
import os
import re
import statistics
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the baseline median by which the metric may worsen
    #: before a change counts as a regression (end-to-end metrics only)
    bound: Optional[float] = None
    #: an absolute worsening, in ``unit``, that never counts as a
    #: regression; the effective bound is the larger of the two
    slack: float = 0.0

    def allowed_share(self, base_median: float) -> float:
        """The effective bound as a share of ``base_median``."""
        bound = self.bound or 0.0
        return max(bound, self.slack / abs(base_median)) if base_median else bound


#: what a caller of the library sees, reported by every workload with
#: tracing off; none can read 0.  The time bounds are 0.25, not 0.10:
#: over ten seeds the spread (quartile distance ÷ median) of the two
#: multi-process workloads was 10-29 % in each of six sets, so a 0.10
#: bound would call most unchanged commits unresolved (README.md,
#: "Run-to-run spread").  The estimate tail (``op.estimate.p90_ms``,
#: per layer) is reported but not gated for the same reason.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25, slack=0.05),
    Metric("estimate_p50_ms", "ms", "lower", 0.25),
    Metric("estimates_per_s", "1/s", "higher", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
]

_MS, _COUNT, _RATIO, _BYTES, _RATE = "ms", "count", "ratio", "B", "1/s"

#: one layer each (``<module>.<function>.<stat>``), reported by every
#: workload in the traced run; a layer a workload never enters reads 0
PER_LAYER: List[Metric] = [
    Metric(name, unit, better)
    for name, unit, better in [
        # the engine facade: request coercion, provenance, metrics snapshot
        ("engine.estimate.self_ms_per_op", _MS, "lower"),
        ("engine.ingest.self_ms_per_op", _MS, "lower"),
        # the fresh-sampling estimate path (static LSH-SS)
        ("vectors.cosine_pairs.self_ms_per_estimate", _MS, "lower"),
        ("vectors.cosine_pairs.pairs_per_estimate", _COUNT, "lower"),
        ("lsh.LSHTable.sample_collision_pairs.self_ms_per_estimate", _MS, "lower"),
        ("lsh.LSHTable.sample_collision_pairs.calls_per_estimate", _COUNT, "lower"),
        ("lsh.LSHTable.sample_non_collision_pairs.self_ms_per_estimate", _MS, "lower"),
        ("lsh.LSHTable.sample_non_collision_pairs.calls_per_estimate", _COUNT, "lower"),
        ("sampling.adaptive_sample.self_ms_per_estimate", _MS, "lower"),
        ("core.sample_stratum_h.self_ms_per_estimate", _MS, "lower"),
        ("core.sample_stratum_l.self_ms_per_estimate", _MS, "lower"),
        # estimator internals, from Estimate.details
        ("core.samplel_pairs_per_estimate", _COUNT, "lower"),
        ("core.samplel_pairs_per_estimate.tau_0_2", _COUNT, "lower"),
        ("core.samplel_pairs_per_estimate.tau_0_9", _COUNT, "lower"),
        ("core.samplel_delta_reached_ratio", _RATIO, "higher"),
        ("core.true_pairs_per_sampled_pair", _RATIO, "higher"),
        # the mutable single-node index and its reservoir estimator
        ("streaming.MutableLSHIndex.cosine_pairs.self_ms_per_estimate", _MS, "lower"),
        ("streaming.coerce_row.self_ms_per_event", _MS, "lower"),
        ("lsh.LSHFamily.hash_matrix.self_ms_per_event", _MS, "lower"),
        ("lsh.LSHFamily.hash_matrix.calls_per_event", _COUNT, "lower"),
        ("streaming.MutableLSHIndex.insert.self_ms_per_event", _MS, "lower"),
        ("streaming.MutableLSHIndex.delete.self_ms_per_event", _MS, "lower"),
        ("streaming.StreamingEstimator.on_insert.self_ms_per_event", _MS, "lower"),
        ("streaming.StreamingEstimator.on_delete.self_ms_per_event", _MS, "lower"),
        ("streaming.StreamingEstimator.refill.self_ms_per_event", _MS, "lower"),
        ("streaming.reservoir_redraws_per_1k_events", _COUNT, "lower"),
        # sharding: router, partition, commit, merge
        ("shard.ShardRouter.flush.self_ms_per_event", _MS, "lower"),
        ("shard.ShardedMutableIndex.prepare_batch.self_ms_per_event", _MS, "lower"),
        ("shard.KeyPartitioner.shard_of_signatures.self_ms_per_event", _MS, "lower"),
        ("shard.ShardedStreamingEstimator.estimate.self_ms_per_estimate", _MS, "lower"),
        ("shard.ShardedMutableIndex.cosine_pairs.self_ms_per_estimate", _MS, "lower"),
        ("shard.ShardRouter.rows_per_s.threads", _RATE, "higher"),
        ("shard.ShardRouter.rows_per_s.serial", _RATE, "higher"),
        # the process cluster: coordinator, transport, workers
        ("cluster.ClusterCoordinator.commit_batch.self_ms_per_event", _MS, "lower"),
        ("cluster.round_trips_per_estimate", _COUNT, "lower"),
        ("cluster.round_trips_per_event", _COUNT, "lower"),
        ("cluster.transport.bytes_per_estimate", _BYTES, "lower"),
        ("cluster.transport.bytes_per_event", _BYTES, "lower"),
        ("cluster.transport.encode.self_ms_per_op", _MS, "lower"),
        ("cluster.transport.decode.self_ms_per_op", _MS, "lower"),
        ("cluster.worker_busy_ms_per_estimate", _MS, "lower"),
        ("cluster.coordinator_wait_ms_per_estimate", _MS, "lower"),
        # the serve daemon, read from its own stats surface
        ("serve.request.estimate.server_ms", _MS, "lower"),
        ("serve.request.ingest.server_ms", _MS, "lower"),
        ("serve.wire_ms_per_estimate", _MS, "lower"),
        ("serve.engine_applies_per_event", _RATIO, "lower"),
        ("serve.busy_rejections", _COUNT, "lower"),
        ("serve.router_flush_ms_per_event", _MS, "lower"),
        # per-operation latency the end-to-end set leaves out
        ("op.estimate.p90_ms", _MS, "lower"),
        ("op.ingest.p50_ms", _MS, "lower"),
        ("op.ingest.p95_ms", _MS, "lower"),
        ("op.estimate_exact.p50_ms", _MS, "lower"),
        # the paper's §6.2 runtime row and accuracy against the exact join
        ("join.exact_join_size.ms", _MS, "lower"),
        ("core.lsh_ss.estimate_ms", _MS, "lower"),
        ("core.lsh_s.estimate_ms", _MS, "lower"),
        ("core.ju.estimate_ms", _MS, "lower"),
        ("core.lc.estimate_ms", _MS, "lower"),
        ("core.rs.estimate_ms", _MS, "lower"),
        ("accuracy.rel_error_p50", _RATIO, "lower"),
        # harness health
        ("trace.coverage", _RATIO, "higher"),
        ("trace.overhead", _RATIO, "lower"),
    ]
]

#: the estimate tail every workload reports: the highest percentile with
#: ten samples beyond it at the 165 estimates of the smallest run
#: (see :func:`tail_percentile`)
TAIL_PERCENTILE = 90


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (rank - low))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def tail_percentile(count: int) -> Optional[int]:
    """The highest reportable percentile: at least ten samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if samples_beyond(count, q) >= 10:
            return q
    return None


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        value = float(values[0]) if values else 0.0
        return [value, value, value]
    return [float(v) for v in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------
def _parent_of(pid: int) -> Optional[int]:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii", errors="replace") as handle:
            stat = handle.read()
    except OSError:
        return None
    # the command name may contain spaces and parentheses: split after it
    return int(stat.rsplit(")", 1)[1].split()[1])


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant (forkserver, workers, daemon)."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            parent = _parent_of(int(entry))
            if parent is not None:
                parents[int(entry)] = parent
    tree, frontier = [root], [root]
    while frontier:
        current = frontier.pop()
        children = [pid for pid, parent in parents.items() if parent == current]
        tree.extend(children)
        frontier.extend(children)
    return tree


def peak_rss_mb(root: Optional[int] = None) -> float:
    """Sum of ``VmHWM`` over ``root`` (default: this process) and its descendants."""
    total_kb = 0
    for pid in process_tree(os.getpid() if root is None else root):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue  # exited between the scan and the read
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# the result line
# ----------------------------------------------------------------------
def result_line(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    values: Mapping[str, float],
    traced: bool,
) -> str:
    """The one JSON object the benchmark prints last.

    Carries exactly the declared metrics of the run's kind: end-to-end
    untraced, per-layer traced.  Missing, undeclared or non-finite
    values raise, so a workload cannot silently drop a metric.
    """
    declared = PER_LAYER if traced else END_TO_END
    names = {metric.name for metric in declared}
    missing = sorted(names - set(values))
    extra = sorted(set(values) - names)
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    metrics = {}
    for metric in declared:
        value = float(values[metric.name])
        if not math.isfinite(value):
            raise ValueError(f"metric {metric.name} is not finite: {value}")
        metrics[metric.name] = {"value": value, "unit": metric.unit}
    return json.dumps(
        {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
         "metrics": metrics}
    )


# ----------------------------------------------------------------------
# compare-mode classification
# ----------------------------------------------------------------------
def _worse_share(base: float, current: float, better: str) -> float:
    if not base:
        return 0.0
    delta = (current - base) / abs(base)
    return delta if better == "lower" else -delta


def classify(metric: Metric, base: Sequence[float], current: Sequence[float]) -> str:
    """``regressed`` / ``unchanged`` / ``unresolved`` for one metric.

    A spread wider than the bound on either side leaves the metric
    unresolved, unless every current run reads better than every base
    run.
    """
    allowed = metric.allowed_share(median(base))
    if max(spread(base), spread(current)) > allowed:
        lower = metric.better == "lower"
        dominates = max(current) < min(base) if lower else min(current) > max(base)
        return "unchanged" if dominates else "unresolved"
    worse = _worse_share(median(base), median(current), metric.better)
    return "regressed" if worse > allowed else "unchanged"


def classify_paired(metric: Metric, base: Sequence[float], current: Sequence[float]) -> str:
    """As :func:`classify`, from the per-pair ratios ``current / base``.

    Both runs of a pair ran back to back (order alternating), so the
    pair shares its window of host noise.
    """
    allowed = metric.allowed_share(median(base))
    ratios = [after / before for before, after in zip(base, current)]
    if spread(ratios) > allowed:
        lower = metric.better == "lower"
        wins = all(r < 1.0 for r in ratios) if lower else all(r > 1.0 for r in ratios)
        return "unchanged" if wins else "unresolved"
    worse = _worse_share(1.0, median(ratios), metric.better)
    return "regressed" if worse > allowed else "unchanged"
