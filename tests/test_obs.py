"""Tests for :mod:`repro.obs` — metrics, snapshots, tracing, and wiring.

Covers the observability subsystem at every layer it touches:

- instrument semantics (counters, gauges, fixed-bucket histograms) and
  the process-wide enable/disable switch;
- snapshot round trips, registry merge/restore, and the associativity /
  commutativity of :meth:`MetricsSnapshot.merge` (property-based — this
  is what makes the cluster coordinator's per-worker fold order-free);
- span trees: nesting, context propagation, retry-stable contexts,
  bounded buffers, and serialisation;
- the protocol meta envelope (frames without a meta dict refused);
- the engine surfaces: per-estimate metrics in ``Provenance``,
  ``engine.stats()``, and one cross-process estimate stitching into a
  single trace that spans the coordinator and every worker process.
"""

from __future__ import annotations

import json
import logging
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_dblp_like
from repro.engine import EngineConfig, EstimateRequest, JoinEstimationEngine
from repro.errors import ClusterError, ValidationError
from repro.cluster.transport import decode_message, encode_message
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    MetricsSnapshot,
    Span,
    Tracer,
    activate_trace_context,
    current_trace_context,
    enable_json_logging,
    format_metric_name,
    get_tracer,
    histogram_quantile,
    log_json,
    logger,
    obs_enabled,
    set_enabled,
    set_tracer,
    trace,
)
from repro.streaming import Insert

SEED = 7


@pytest.fixture(autouse=True)
def _collection_on():
    """Every test starts with collection enabled and leaves it that way."""
    previous = set_enabled(True)
    yield
    set_enabled(previous)


@pytest.fixture
def fresh_tracer():
    """Swap in an empty process-global tracer for the duration of a test."""
    tracer = Tracer()
    previous = set_tracer(tracer)
    yield tracer
    set_tracer(previous)


@pytest.fixture(scope="module")
def small_collection():
    return make_dblp_like(num_vectors=150, random_state=SEED).collection


# ======================================================================
# instruments
# ======================================================================
class TestInstruments:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", op="estimate")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("queue_depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_histogram_buckets_and_stats(self):
        histogram = MetricsRegistry().histogram("latency", buckets=[0.1, 1.0, 5.0])
        for value in (0.05, 0.5, 0.5, 2.0, 100.0):
            histogram.observe(value)
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(103.05)
        assert histogram.mean == pytest.approx(103.05 / 5)
        # buckets: ≤0.1, ≤1.0, ≤5.0, overflow
        assert histogram.bucket_counts == (1, 2, 1, 1)
        assert histogram.quantile(0.5) == 1.0
        # the overflow bucket reports the last finite bound (a floor)
        assert histogram.quantile(1.0) == 5.0

    def test_same_name_and_labels_share_a_handle(self):
        registry = MetricsRegistry()
        assert registry.counter("c", a=1, b=2) is registry.counter("c", b=2, a=1)
        assert registry.counter("c") is not registry.counter("c", a=1)
        assert len(registry) == 3

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)
        registry = MetricsRegistry()
        assert registry.histogram("h").bounds == DEFAULT_LATENCY_BUCKETS

    def test_bad_histograms_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValidationError):
            registry.histogram("empty", buckets=[])
        with pytest.raises(ValidationError):
            registry.histogram("unordered", buckets=[1.0, 0.5])

    def test_quantile_validation(self):
        histogram = MetricsRegistry().histogram("h", buckets=[1.0])
        with pytest.raises(ValidationError):
            histogram.quantile(1.5)
        assert histogram.quantile(0.5) == 0.0  # empty histogram

    def test_histogram_quantile_on_raw_arrays(self):
        bounds = (0.1, 1.0)
        counts = np.array([0, 3, 1])  # 3 in (0.1, 1.0], 1 overflow
        assert histogram_quantile(bounds, counts, 0.5) == 1.0

    def test_disabled_instruments_are_inert(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        gauge = registry.gauge("g")
        histogram = registry.histogram("h", buckets=[1.0])
        counter.inc(5)
        set_enabled(False)
        assert not obs_enabled()
        counter.inc(100)
        gauge.set(100)
        histogram.observe(0.5)
        # disabling never loses already-collected data
        assert counter.value == 5.0
        assert gauge.value == 0.0
        assert histogram.count == 0

    def test_format_metric_name(self):
        assert format_metric_name("c") == "c"
        assert format_metric_name("c", {"b": 2, "a": 1}) == "c{a=1,b=2}"
        assert format_metric_name("c", (("op", "x"),)) == "c{op=x}"


# ======================================================================
# snapshots: round trips, merge, restore
# ======================================================================
def _loaded_registry():
    registry = MetricsRegistry()
    registry.counter("requests_total", op="estimate").inc(3)
    registry.gauge("pending").set(7)
    histogram = registry.histogram("latency", buckets=[0.1, 1.0])
    histogram.observe(0.05)
    histogram.observe(0.5)
    return registry


class TestSnapshots:
    def test_snapshot_round_trip(self):
        registry = _loaded_registry()
        snapshot = registry.snapshot()
        assert MetricsSnapshot.from_dict(snapshot.to_dict()) == snapshot
        # to_dict is JSON-safe
        json.dumps(snapshot.to_dict())

    def test_snapshot_is_a_copy(self):
        registry = _loaded_registry()
        payload = registry.snapshot().to_dict()
        payload["counters"][0]["value"] = 10**6
        assert registry.counter("requests_total", op="estimate").value == 3.0

    def test_bad_format_rejected(self):
        with pytest.raises(ValidationError):
            MetricsSnapshot({"format": 2})

    def test_merge_adds_and_appends(self):
        a = _loaded_registry().snapshot()
        other = MetricsRegistry()
        other.counter("requests_total", op="estimate").inc(2)
        other.counter("only_in_b").inc(1)
        merged = a.merge(other.snapshot()).to_dict()
        by_name = {
            format_metric_name(e["name"], e["labels"]): e["value"]
            for e in merged["counters"]
        }
        assert by_name["requests_total{op=estimate}"] == 5.0
        assert by_name["only_in_b"] == 1.0

    def test_merge_histograms_elementwise(self):
        a = _loaded_registry().snapshot()
        b = _loaded_registry().snapshot()
        entry = a.merge(b).to_dict()["histograms"][0]
        assert entry["counts"] == [1 * 2, 1 * 2, 0]
        assert entry["count"] == 4
        assert entry["sum"] == pytest.approx(1.1)

    def test_merge_mismatched_bounds_raises(self):
        a = MetricsRegistry()
        a.histogram("h", buckets=[0.1]).observe(0.05)
        b = MetricsRegistry()
        b.histogram("h", buckets=[0.2]).observe(0.05)
        with pytest.raises(ValidationError):
            a.snapshot().merge(b.snapshot())


# ======================================================================
# merge algebra (property-based)
# ======================================================================
_NAMES = st.sampled_from(["alpha", "beta", "gamma"])
_LABELS = st.sampled_from([(), (("op", "x"),), (("op", "y"), ("shard", "0"))])
_BOUNDS = [0.1, 1.0, 5.0]


@st.composite
def _snapshots(draw):
    counters = draw(
        st.dictionaries(st.tuples(_NAMES, _LABELS), st.integers(0, 1000), max_size=4)
    )
    histograms = draw(
        st.dictionaries(
            st.tuples(_NAMES, _LABELS),
            st.tuples(*[st.integers(0, 50)] * (len(_BOUNDS) + 1)),
            max_size=3,
        )
    )
    return MetricsSnapshot(
        {
            "format": 1,
            "counters": [
                {"name": name, "labels": dict(labels), "value": float(value)}
                for (name, labels), value in counters.items()
            ],
            "histograms": [
                {
                    "name": name,
                    "labels": dict(labels),
                    "buckets": list(_BOUNDS),
                    "counts": list(counts),
                    "sum": float(sum(counts)),
                    "count": int(sum(counts)),
                }
                for (name, labels), counts in histograms.items()
            ],
        }
    )


def _canon(snapshot: MetricsSnapshot):
    """Order-free view: merge output order depends on gather order."""
    payload = snapshot.to_dict()
    return {
        section: sorted(
            payload[section], key=lambda e: (e["name"], sorted(e["labels"].items()))
        )
        for section in ("counters", "gauges", "histograms")
    }


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(a=_snapshots(), b=_snapshots(), c=_snapshots())
    def test_merge_is_associative(self, a, b, c):
        assert _canon(a.merge(b).merge(c)) == _canon(a.merge(b.merge(c)))

    @settings(max_examples=60, deadline=None)
    @given(a=_snapshots(), b=_snapshots())
    def test_merge_is_commutative(self, a, b):
        assert _canon(a.merge(b)) == _canon(b.merge(a))

    @settings(max_examples=30, deadline=None)
    @given(a=_snapshots())
    def test_empty_is_identity(self, a):
        assert _canon(a.merge(MetricsSnapshot.empty())) == _canon(a)
        assert _canon(MetricsSnapshot.empty().merge(a)) == _canon(a)


# ======================================================================
# tracing
# ======================================================================
class TestTracing:
    def test_nesting_builds_a_tree(self, fresh_tracer):
        with trace("outer") as root:
            with trace("inner", kind="child"):
                pass
        inner, outer = fresh_tracer.drain()
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.trace_id == outer.trace_id == root.trace_id
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attributes == {"kind": "child"}
        assert inner.duration is not None and outer.duration is not None
        assert outer.pid == os.getpid()
        # ids are 16-char lowercase hex
        for identifier in (inner.trace_id, inner.span_id, outer.span_id):
            assert len(identifier) == 16
            int(identifier, 16)

    def test_attributes_settable_through_the_span(self, fresh_tracer):
        with trace("op") as span:
            span.set_attribute("rows", 3)
        (finished,) = fresh_tracer.drain()
        assert finished.attributes["rows"] == 3

    def test_disabled_yields_none_and_records_nothing(self, fresh_tracer):
        set_enabled(False)
        with trace("invisible") as span:
            assert span is None
            assert current_trace_context() is None
        assert fresh_tracer.drain() == []

    def test_drain_clears_and_spans_peeks(self, fresh_tracer):
        with trace("a"):
            pass
        assert [s.name for s in fresh_tracer.spans()] == ["a"]
        assert len(fresh_tracer) == 1  # spans() does not consume
        drained = fresh_tracer.drain()
        assert all(isinstance(span, Span) for span in drained)
        assert fresh_tracer.drain() == []

    def test_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for index in range(10):
            with tracer.trace(f"span-{index}"):
                pass
        names = [span.name for span in tracer.drain()]
        assert names == ["span-6", "span-7", "span-8", "span-9"]

    def test_current_context_only_inside_spans(self, fresh_tracer):
        assert current_trace_context() is None
        with trace("op") as span:
            context = current_trace_context()
            assert context == {"trace_id": span.trace_id, "span_id": span.span_id}
            # retry stability: the context is derived from the open span,
            # so a resend ships the identical ids
            assert current_trace_context() == context
        assert current_trace_context() is None

    def test_activate_remote_context_joins_the_trace(self, fresh_tracer):
        remote = {"trace_id": "00000000000000ab", "span_id": "00000000000000cd"}
        with activate_trace_context(remote):
            assert current_trace_context() == remote
            with trace("worker.op"):
                pass
        assert current_trace_context() is None
        (span,) = fresh_tracer.drain()
        assert span.trace_id == remote["trace_id"]
        assert span.parent_id == remote["span_id"]

    def test_activate_none_detaches(self, fresh_tracer):
        with trace("outer"):
            with activate_trace_context(None):
                assert current_trace_context() is None
                with trace("fresh-root"):
                    pass
        fresh_root, outer = fresh_tracer.drain()
        assert fresh_root.parent_id is None
        assert fresh_root.trace_id != outer.trace_id

    def test_span_dict_round_trip_and_adopt(self, fresh_tracer):
        with trace("op", x=1):
            pass
        (span,) = fresh_tracer.drain()
        revived = Span.from_dict(span.to_dict())
        assert revived.to_dict() == span.to_dict()
        fresh_tracer.adopt([span.to_dict(), revived])
        assert [s.span_id for s in fresh_tracer.drain()] == [span.span_id] * 2

    def test_sibling_ids_are_distinct(self, fresh_tracer):
        with trace("parent"):
            for _ in range(5):
                with trace("child"):
                    pass
        ids = {span.span_id for span in fresh_tracer.drain()}
        assert len(ids) == 6


# ======================================================================
# protocol meta envelope
# ======================================================================
class TestTransportMeta:
    def test_meta_round_trip(self):
        meta = {"trace": {"trace_id": "ab", "span_id": "cd"}}
        frame = encode_message("estimate", {"threshold": 0.7}, meta)
        op, payload, decoded_meta = decode_message(frame[8:])
        assert (op, payload, decoded_meta) == ("estimate", {"threshold": 0.7}, meta)
        # an absent meta travels as {}; frames without a meta dict are refused
        assert decode_message(encode_message("ping", {"x": 1})[8:]) == ("ping", {"x": 1}, {})
        for body in (("ok", {"value": 1}), ("ok", {"value": 1}, None)):
            with pytest.raises(ClusterError, match="malformed frame"):
                decode_message(pickle.dumps(body))


# ======================================================================
# engine surfaces
# ======================================================================
class TestEngineObservability:
    def test_provenance_carries_metrics(self, small_collection):
        engine = JoinEstimationEngine(
            EngineConfig(backend="static", num_hashes=12, seed=SEED)
        ).open()
        engine.ingest(small_collection)
        result = engine.estimate(EstimateRequest(0.7, seed=1, mode="exact"))
        engine.close()
        metrics = result.provenance.metrics
        assert metrics["format"] == 1
        counters = {e["name"]: e["value"] for e in metrics["counters"]}
        assert counters["engine_estimates_total"] >= 1.0
        histograms = {e["name"]: e for e in metrics["histograms"]}
        assert histograms["engine_estimate_seconds"]["count"] >= 1

    def test_engine_spans_cover_the_call(self, small_collection, fresh_tracer):
        engine = JoinEstimationEngine(
            EngineConfig(backend="static", num_hashes=12, seed=SEED)
        ).open()
        engine.ingest(small_collection)
        fresh_tracer.drain()
        engine.estimate(EstimateRequest(0.7, seed=1, mode="exact"))
        names = {span.name for span in fresh_tracer.drain()}
        assert "engine.estimate" in names
        engine.close()

    def test_stats_for_static_engine(self, small_collection):
        engine = JoinEstimationEngine(
            EngineConfig(backend="static", num_hashes=12, seed=SEED)
        ).open()
        engine.ingest(small_collection)
        stats = engine.stats()
        engine.close()
        assert stats["config"]["backend"] == "static"
        assert stats["metrics"]["format"] == 1

    def test_stats_for_sharded_engine_sees_router_metrics(self, small_collection):
        engine = JoinEstimationEngine(
            EngineConfig(
                backend="sharded",
                num_hashes=12,
                seed=SEED,
                dimension=small_collection.dimension,
                options={"num_shards": 2},
            )
        ).open()
        engine.ingest(small_collection)
        engine.flush()
        engine.estimate(EstimateRequest(0.7, seed=1, mode="exact"))
        stats = engine.stats()
        engine.close()
        names = {e["name"] for e in stats["metrics"]["counters"]}
        assert "router_events_total" in names
        assert "engine_estimates_total" in names

    def test_bit_identity_across_the_switch(self, small_collection):
        engine = JoinEstimationEngine(
            EngineConfig(backend="static", num_hashes=12, seed=SEED)
        ).open()
        engine.ingest(small_collection)
        request = EstimateRequest(0.7, seed=99, mode="exact")
        value_on = engine.estimate(request).value
        set_enabled(False)
        value_off = engine.estimate(request).value
        set_enabled(True)
        engine.close()
        assert value_on == value_off


# ======================================================================
# cross-process stitching + cluster stats
# ======================================================================
def _dense_rows(dimension: int, count: int, seed: int):
    rng = np.random.default_rng(seed)
    rows = (rng.random((count, dimension)) < 0.4) * rng.random((count, dimension))
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return list(rows)


@pytest.mark.timeout(120)
class TestProcessClusterObservability:
    @pytest.fixture()
    def process_engine(self):
        engine = JoinEstimationEngine(
            EngineConfig(
                backend="process",
                num_hashes=10,
                seed=SEED,
                dimension=8,
                options={"shards": 2, "request_timeout": 30.0},
            )
        ).open()
        try:
            for row in _dense_rows(8, 40, SEED):
                engine.ingest(Insert(row))
            engine.flush()
            yield engine
        finally:
            engine.close()

    def test_one_estimate_one_stitched_trace(self, process_engine, fresh_tracer):
        worker_pids = {
            info["pid"] for info in process_engine.backend.index.worker_infos
        }
        fresh_tracer.drain()
        with trace("test.root") as root:
            process_engine.estimate(EstimateRequest(0.7, seed=3, mode="exact"))
        spans = fresh_tracer.drain()
        assert {span.trace_id for span in spans} == {root.trace_id}
        pids = {span.pid for span in spans}
        assert os.getpid() in pids
        assert worker_pids <= pids
        assert any(span.name.startswith("worker.") for span in spans)
        # the root is the only parentless span; every other span's parent
        # is inside the collected set — one connected tree, no orphans
        ids = {span.span_id for span in spans}
        roots = [span for span in spans if span.parent_id is None]
        assert [span.span_id for span in roots] == [root.span_id]
        assert all(
            span.parent_id in ids for span in spans if span.parent_id is not None
        )

    def test_cluster_stats_merge_worker_registries(self, process_engine):
        process_engine.estimate(EstimateRequest(0.7, seed=3, mode="exact"))
        stats = process_engine.stats()
        assert len(stats["workers"]) == 2
        for row in stats["workers"]:
            assert row["pid"] > 0
            assert row["blocked_seconds"] >= 0.0
            assert row["worker_ingest_seconds"] >= 0.0
        histograms = {e["name"] for e in stats["metrics"]["histograms"]}
        # worker_op_seconds only exists in the worker processes' own
        # registries — seeing it here proves the stats fan-out merged them
        assert "worker_op_seconds" in histograms


# ======================================================================
# export
# ======================================================================
class TestExport:
    def test_enable_json_logging_emits_parseable_lines(self, capsys):
        import io

        stream = io.StringIO()
        previous_level = logger.level
        handler = enable_json_logging(stream)
        try:
            log_json("unit-test", answer=42)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        (line,) = stream.getvalue().splitlines()
        assert json.loads(line) == {"event": "unit-test", "answer": 42}

    def test_spans_log_at_debug_when_a_handler_listens(self, fresh_tracer):
        import io

        stream = io.StringIO()
        previous_level = logger.level
        handler = enable_json_logging(stream, level=logging.DEBUG)
        try:
            with trace("logged.op"):
                pass
        finally:
            logger.removeHandler(handler)
            logger.setLevel(previous_level)
        events = [json.loads(line) for line in stream.getvalue().splitlines()]
        span_events = [e for e in events if e["event"] == "span"]
        assert span_events and span_events[0]["name"] == "logged.op"
        assert span_events[0]["duration"] is not None

    def test_silent_by_default(self, capsys):
        log_json("nobody-listens", x=1)
        with trace("quiet"):
            pass
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""
