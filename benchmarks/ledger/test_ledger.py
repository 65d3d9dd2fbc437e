"""Harness tests for the performance ledger.

Run from the repository root (a few seconds)::

    PYTHONPATH=src:. python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from benchmarks.ledger import metrics as M
from benchmarks.ledger import tracer as T
from benchmarks.ledger.run import DEFAULT_SECONDS, WORKLOAD_NAMES
from benchmarks.ledger.workloads import WORKLOADS, Sizes, per_segment_ops

ROOT = Path(__file__).resolve().parents[2]
TINY = Sizes(static_n=1000, churn_n=300, segments=1)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _fake(name: str) -> T.Target:
    return T.Target(name, "fake", name, frozenset())


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_wrapped_calls():
    clock = FakeClock()
    tracer = T.Tracer(clock=clock)
    outer_target, inner_target = _fake("outer"), _fake("inner")

    def inner() -> None:
        clock.advance(2.0)

    def outer() -> None:
        clock.advance(1.0)
        tracer.call(inner_target, inner, (), {})
        clock.advance(3.0)
        tracer.call(inner_target, inner, (), {})

    with tracer.active("estimate"):
        tracer.call(outer_target, outer, (), {})
    outer_record = tracer.get("outer", ["estimate"])
    inner_record = tracer.get("inner", ["estimate"])
    assert (outer_record.calls, outer_record.self_s) == (1, 4.0)
    assert (inner_record.calls, inner_record.self_s) == (2, 4.0)
    assert tracer.total_self_s() == clock.now  # self times partition the wall


def test_recursive_calls_and_phases_are_accounted_separately():
    clock = FakeClock()
    tracer = T.Tracer(clock=clock)
    target = _fake("node")

    def node(depth: int) -> int:
        clock.advance(1.0)
        return depth if depth == 0 else tracer.call(target, node, (depth - 1,), {})

    with tracer.active("ingest"):
        assert tracer.call(target, node, (2,), {}) == 0
    tracer.call(target, node, (1,), {})  # no active phase: not recorded
    record = tracer.get("node", ["ingest"])
    assert (record.calls, record.self_s) == (3, 3.0)
    assert tracer.get("node", ["estimate"]).calls == 0


def test_failed_calls_are_timed_without_a_measure():
    clock = FakeClock()
    tracer = T.Tracer(clock=clock)
    target = T.Target("boom", "fake", "boom", frozenset(), measure=lambda args, result: 99.0)

    def boom() -> None:
        clock.advance(0.5)
        raise ValueError("boom")

    with tracer.active("estimate"), pytest.raises(ValueError):
        tracer.call(target, boom, (), {})
    record = tracer.get("boom", ["estimate"])
    assert (record.calls, record.self_s, record.measure) == (1, 0.5, 0.0)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50), (40, 75), (100, 90), (199, 90), (200, 95), (999, 95), (1000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond_it(count, expected):
    assert M.tail_percentile(count) == expected
    if expected is not None:
        assert M.samples_beyond(count, expected) >= 10


def test_reported_tail_has_ten_samples_beyond_it_in_every_workload():
    fewest = min(per_segment_ops(workload, DEFAULT_SECONDS, Sizes()) * Sizes().segments
                 for workload in WORKLOADS)
    assert M.tail_percentile(fewest) == M.TAIL_PERCENTILE
    assert f"op.estimate.p{M.TAIL_PERCENTILE}_ms" in {metric.name for metric in M.PER_LAYER}


def test_percentile_interpolates_and_quartiles_match_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert M.percentile(values, 50) == 2.5
    assert M.percentile(values, 100) == 4.0
    assert M.percentile([], 90) == 0.0
    assert M.quartiles(values)[1] == 2.5
    assert math.isclose(M.spread([10.0, 10.0, 10.0]), 0.0)


# ----------------------------------------------------------------------
# names and the declaration file
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed_and_unique():
    declared = M.END_TO_END + M.PER_LAYER
    names = [metric.name for metric in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert M.NAME_RE.match(metric.name), metric.name
        assert M.UNIT_RE.match(metric.unit), metric.unit
        assert metric.better in ("lower", "higher")
    assert all(0 < metric.bound <= 0.25 for metric in M.END_TO_END)
    setup = next(metric for metric in M.END_TO_END if metric.name == "setup_s")
    assert (setup.unit, setup.better, setup.slack) == ("s", "lower", 0.05)
    assert setup.bound == max(metric.bound for metric in M.END_TO_END)
    for bad in ("", "_x", "a b", "a/b", "x" * 65):
        assert not M.NAME_RE.match(bad)


def test_benchmark_json_declares_exactly_the_ledger():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert declared["command"] == ["python3", "benchmarks/ledger/run.py"]
    assert declared["run_seconds"] == DEFAULT_SECONDS
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in declared["end_to_end"]] == [
        (m.name, m.unit, m.better, m.bound) for m in M.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == [
        (m.name, m.unit, m.better) for m in M.PER_LAYER
    ]


def test_result_line_carries_exactly_the_declared_metrics():
    values = {metric.name: 1.5 for metric in M.END_TO_END}
    line = json.loads(M.result_line(correct=True, attempted=3, failed=0, values=values,
                                    traced=False))
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    assert list(line["metrics"]) == [metric.name for metric in M.END_TO_END]
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    missing = dict(values)
    missing.pop("setup_s")
    for bad in (missing, {**values, "undeclared_ms": 1.0}, {**values, "setup_s": math.nan}):
        with pytest.raises(ValueError):
            M.result_line(correct=True, attempted=3, failed=0, values=bad, traced=False)


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------
LATENCY = M.Metric("x_ms", "ms", "lower", 0.1)
RATE = M.Metric("x_per_s", "1/s", "higher", 0.1)


def test_classify_against_the_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert M.classify(LATENCY, base, [v * 1.05 for v in base]) == "unchanged"
    assert M.classify(LATENCY, base, [v * 1.2 for v in base]) == "regressed"
    assert M.classify(RATE, base, [v * 0.8 for v in base]) == "regressed"
    assert M.classify(RATE, base, [v * 1.2 for v in base]) == "unchanged"
    noisy = [5.0, 15.0, 10.0, 8.0, 12.0]
    assert M.classify(LATENCY, base, noisy) == "unresolved"
    # a wide spread is still resolved when every run reads better
    assert M.classify(LATENCY, base, [1.0, 3.0, 2.0, 1.5, 2.5]) == "unchanged"


def test_absolute_slack_widens_the_bound_for_small_values():
    setup = M.Metric("setup_s", "s", "lower", 0.1, slack=0.05)
    fast = [0.020, 0.021, 0.019, 0.020, 0.020]
    assert M.classify(setup, fast, [v + 0.04 for v in fast]) == "unchanged"  # +200 %, +40 ms
    assert M.classify(setup, fast, [v + 0.06 for v in fast]) == "regressed"
    slow = [2.0, 2.02, 1.98, 2.0, 2.0]
    assert M.classify(setup, slow, [v * 1.15 for v in slow]) == "regressed"  # +15 %, +0.3 s


def test_classify_paired_ratios():
    base = [10.0, 11.0, 9.0, 10.0, 10.5]

    def verdict(metric, ratios):
        return M.classify_paired(metric, base, [b * r for b, r in zip(base, ratios)])

    assert verdict(LATENCY, [1.01, 0.99, 1.02, 1.0, 0.98]) == "unchanged"
    assert verdict(LATENCY, [1.2, 1.22, 1.19, 1.21, 1.2]) == "regressed"
    assert verdict(LATENCY, [0.6, 1.4, 1.0, 0.8, 1.3]) == "unresolved"
    assert verdict(RATE, [0.8, 0.82, 0.79, 0.81, 0.8]) == "regressed"
    assert verdict(RATE, [1.2, 1.22, 1.19, 1.21, 1.2]) == "unchanged"


# ----------------------------------------------------------------------
# the wrap table
# ----------------------------------------------------------------------
def test_every_target_is_claimed_by_a_workload():
    for target in T.TARGETS:
        assert target.workloads and target.workloads <= set(WORKLOAD_NAMES), target.name


def test_a_renamed_target_fails_loudly():
    renamed = T.Target("vectors.cosine_pairs", "repro.vectors.similarity", "cosine_pairs_v2",
                       frozenset({"static_query"}))
    with pytest.raises(LookupError):
        T.install(T.Tracer(), [renamed])
    moved = T.Target("x", "repro.lsh.table", "NoSuchTable.sample", frozenset({"static_query"}))
    with pytest.raises(LookupError):
        T.install(T.Tracer(), [moved])


def test_install_wraps_every_import_site_and_restores_them():
    import repro.core.lsh_ss as lsh_ss
    import repro.vectors.similarity as similarity

    original = similarity.cosine_pairs
    targets = [t for t in T.TARGETS if t.name == "vectors.cosine_pairs"]
    uninstall = T.install(T.Tracer(), targets)
    try:
        assert similarity.cosine_pairs is not original
        assert lsh_ss.cosine_pairs is similarity.cosine_pairs
    finally:
        uninstall()
    assert similarity.cosine_pairs is original and lsh_ss.cosine_pairs is original


@pytest.mark.timeout(240)
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_workload_reaches_every_layer_it_claims(workload):
    """Tiny traced run: checks pass, every claimed layer was called, names match."""
    # 0.6 s of operations: 6–93 of them, enough for every traced phase
    outcome = WORKLOADS[workload](seed=3, seconds=0.6, traced=True, sizes=TINY)
    assert outcome.problems == []
    assert outcome.failed == 0
    assert set(outcome.layers) == {metric.name for metric in M.PER_LAYER}
    assert set(outcome.end_to_end) == {metric.name for metric in M.END_TO_END}
    assert all(value > 0 for value in outcome.end_to_end.values())
    assert outcome.layers["trace.coverage"] > 0
