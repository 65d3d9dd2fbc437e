"""Tests for the unified estimation engine (config, backends, front door)."""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSHSSEstimator, RandomPairSampling
from repro.engine import (
    EngineConfig,
    EstimateRequest,
    JoinEstimationEngine,
    resolve_backend,
)
from repro.errors import (
    IndexNotBuiltError,
    ReproError,
    UnsupportedOperationError,
    ValidationError,
)
from repro.lsh import LSHFamily, LSHIndex, SignRandomProjectionFamily
from repro.shard import (
    KeyPartitioner,
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
)
from repro.streaming import (
    ChangeLog,
    Checkpoint,
    Delete,
    Insert,
    MutableLSHIndex,
    StreamingEstimator,
)


# ----------------------------------------------------------------------
# EngineConfig
# ----------------------------------------------------------------------
class TestEngineConfig:
    def test_defaults(self):
        config = EngineConfig()
        assert config.backend == "static"
        assert config.family == "cosine"
        assert config.dimension is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            EngineConfig(backend="quantum")

    def test_unknown_option_rejected(self):
        with pytest.raises(ValidationError, match="unknown option"):
            EngineConfig(backend="static", options={"num_shards": 4})

    @pytest.mark.parametrize("backend", ["sharded", "process"])
    @pytest.mark.parametrize("option", ["shard_estimators", "estimator_kwargs"])
    def test_per_shard_estimator_options_rejected(self, backend, option):
        # one facade estimator serves every mode: shards carry none
        with pytest.raises(ValidationError, match=f"unknown option.*{option}"):
            EngineConfig(backend=backend, dimension=8, options={option: True})

    @pytest.mark.parametrize("backend", ["sharded", "process"])
    def test_partitioner_option_rejected(self, backend):
        # one placement rule: there is no partitioner kind to choose
        with pytest.raises(ValidationError, match="unknown option.*partitioner"):
            EngineConfig(backend=backend, dimension=8, options={"partitioner": "rendezvous"})

    def test_bundle_naming_partitioner_refused(self, small_collection, tmp_path):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension, options={"num_shards": 2})
        path = tmp_path / "bundle.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
        with open(path, "rb") as handle:
            bundle = pickle.load(handle)
        bundle["config"]["options"]["partitioner"] = "modulo"
        with open(path, "wb") as handle:
            pickle.dump(bundle, handle)
        with pytest.raises(ValidationError, match="unknown option.*partitioner"):
            JoinEstimationEngine.restore(path)

    @pytest.mark.parametrize("backend", ["static", "streaming"])
    def test_bundle_naming_num_tables_refused(self, small_collection, tmp_path, backend):
        # ℓ is no engine config field: a bundle whose config names it,
        # even as 1, is refused like any other unknown field
        config = EngineConfig(backend=backend, num_hashes=8, seed=4,
                              dimension=small_collection.dimension)
        path = tmp_path / "bundle.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
        with open(path, "rb") as handle:
            bundle = pickle.load(handle)
        bundle["config"]["num_tables"] = 1
        with open(path, "wb") as handle:
            pickle.dump(bundle, handle)
        with pytest.raises(ValidationError, match="unknown config field.*num_tables"):
            JoinEstimationEngine.restore(path)

    @pytest.mark.parametrize("backend", ["static", "streaming"])
    def test_negative_request_seed_refused(self, small_collection, backend):
        config = EngineConfig(backend=backend, num_hashes=8,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="seed must be >= 0"):
                engine.estimate(EstimateRequest(0.8, seed=-2))

    def test_family_must_be_string(self):
        with pytest.raises(ValidationError, match="name string"):
            EngineConfig(family=SignRandomProjectionFamily)

    _NOT_COSINE = ["jaccard", "angular", "nope", SignRandomProjectionFamily]

    @pytest.mark.parametrize("backend", ["static", "streaming", "sharded", "process"])
    @pytest.mark.parametrize(
        "family", _NOT_COSINE, ids=["jaccard", "angular", "unknown", "class"]
    )
    def test_non_cosine_family_refused(self, backend, family):
        # every estimator evaluates cosine: refused when the config is
        # built, not at a static engine's first estimate or a mutable open
        with pytest.raises(ValidationError, match="evaluate cosine"):
            EngineConfig(backend=backend, family=family, dimension=8)
        with pytest.raises(ValidationError, match="evaluate cosine"):
            EngineConfig(backend=backend, dimension=8).replace(family=family)
        if isinstance(family, str):
            payload = {"backend": backend, "family": family, "dimension": 8}
            with pytest.raises(ValidationError, match="evaluate cosine"):
                EngineConfig.from_dict(payload)
            with pytest.raises(ValidationError, match="evaluate cosine"):
                EngineConfig.from_json(json.dumps(payload))

    _BAD_SCALARS = [
        ("num_hashes", 0, "static"),
        ("dimension", 0, "static"),
        ("num_hashes", "20", "static"),
        ("seed", 1.5, "static"),
        ("seed", -1, "static"),
    ]

    @pytest.mark.parametrize(
        "field,value,backend",
        _BAD_SCALARS,
        ids=[f"{f}-{v}" + ("" if b == "static" else f"-{b}") for f, v, b in _BAD_SCALARS],
    )
    def test_bad_scalar_rejected(self, field, value, backend):
        with pytest.raises(ValidationError, match=None if backend == "static" else backend):
            EngineConfig(backend=backend, **{field: value})

    _BAD_OPTIONS = [
        ("sharded", {"num_shards": "2"}, "option 'num_shards'"),
        ("sharded", {"batch_size": None}, "option 'batch_size'"),
        ("sharded", {"num_shards": True}, "option 'num_shards'"),
        ("streaming", {"reservoir_size": 2.5}, "option 'reservoir_size'"),
        ("streaming", {"staleness_budget": "x"}, "option 'staleness_budget'"),
        ("process", {"shards": "x"}, "option 'shards'"),
        ("process", {"request_timeout": "30"}, "option 'request_timeout'"),
        ("static", {"estimator_kwargs": [1]}, "option 'estimator_kwargs'"),
        ("static", {"estimator": "nope"}, "unknown estimator 'nope'"),
        ("static", {"estimator": 3}, "option 'estimator'"),
    ]

    @pytest.mark.parametrize(
        "backend,options,match", _BAD_OPTIONS,
        ids=[f"{b}-{next(iter(o))}-{next(iter(o.values()))}" for b, o, _ in _BAD_OPTIONS],
    )
    def test_bad_option_value_refused_at_config_time(self, backend, options, match):
        with pytest.raises(ValidationError, match=match):
            EngineConfig(backend=backend, dimension=8, options=options)

    def test_estimator_kwargs_a_flavor_refuses(self, small_collection):
        # estimator_kwargs reach every flavor served: a keyword one of
        # them does not take is refused when that flavor is built
        config = EngineConfig(options={"estimator_kwargs": {"sample_size_h": 50}})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.estimate(0.8, seed=1)
            with pytest.raises(ValidationError, match="estimator 'rs' refuses"):
                engine.estimate(EstimateRequest(0.8, seed=1, estimator="rs"))

    def test_boolean_sample_size_refused(self, small_collection):
        # a bool passed as m_H is refused with a defined error, not a
        # numpy TypeError at the first SampleH draw
        config = EngineConfig(backend="static",
                              options={"estimator_kwargs": {"sample_size_h": True}})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="sample_size_h"):
                engine.estimate(0.8, seed=1)

    def test_dict_round_trip(self):
        config = EngineConfig(backend="sharded", dimension=30,
                              options={"num_shards": 3})
        assert EngineConfig.from_dict(config.to_dict()) == config

    def test_json_round_trip(self):
        config = EngineConfig(backend="streaming", dimension=8, seed=11,
                              options={"staleness_budget": 0.5})
        assert EngineConfig.from_json(config.to_json()) == config

    def test_file_round_trip(self, tmp_path):
        config = EngineConfig(num_hashes=6)
        path = tmp_path / "engine.json"
        config.to_file(path)
        assert EngineConfig.from_file(path) == config

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown config field"):
            EngineConfig.from_dict({"backend": "static", "shards": 4})

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            EngineConfig.from_file(tmp_path / "nope.json")

    def test_from_json_invalid(self):
        with pytest.raises(ValidationError, match="not valid JSON"):
            EngineConfig.from_json("{nope")

    def test_coerce_forms(self, tmp_path):
        config = EngineConfig(seed=3)
        path = tmp_path / "c.json"
        config.to_file(path)
        assert EngineConfig.coerce(config) is config
        assert EngineConfig.coerce(config.to_dict()) == config
        assert EngineConfig.coerce(path) == config
        with pytest.raises(ValidationError):
            EngineConfig.coerce(42)

    def test_replace_revalidates(self):
        config = EngineConfig(backend="sharded", dimension=10)
        with pytest.raises(ValidationError):
            config.replace(backend="nope")

    # the acceptance-criterion property: any valid config survives the
    # dict→json→dict round trip bit-identically
    @given(
        backend=st.sampled_from(["static", "streaming", "sharded"]),
        family=st.just("cosine"),
        num_hashes=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
        dimension=st.one_of(st.none(), st.integers(min_value=1, max_value=10_000)),
    )
    @settings(max_examples=60, deadline=None)
    def test_config_round_trip_property(self, backend, family, num_hashes, seed, dimension):
        options = {}
        if backend == "streaming":
            options = {"staleness_budget": 0.25, "reservoir_size": 64}
        elif backend == "sharded":
            options = {"num_shards": 3, "batch_size": 32}
        config = EngineConfig(
            backend=backend, family=family, num_hashes=num_hashes,
            seed=seed, dimension=dimension, options=options,
        )
        via_json = EngineConfig.from_json(config.to_json())
        assert via_json == config
        # and the JSON form is plain data (no repr round-tripping)
        assert json.loads(config.to_json())["backend"] == backend


# ----------------------------------------------------------------------
# Envelopes
# ----------------------------------------------------------------------
class TestEnvelopes:
    def test_request_dict_round_trip(self):
        request = EstimateRequest(0.8, mode="exact", seed=3, estimator="lsh-s")
        assert EstimateRequest.from_dict(request.to_dict()) == request

    def test_request_needs_threshold(self):
        with pytest.raises(ValidationError, match="threshold"):
            EstimateRequest.from_dict({"mode": "auto"})

    def test_request_rejects_unknown_fields(self):
        with pytest.raises(ValidationError, match="unknown request field"):
            EstimateRequest.from_dict({"threshold": 0.5, "tau": 0.5})

    def test_result_is_float_convertible(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8)
        assert float(result) == result.value
        payload = result.to_dict()
        assert payload["provenance"]["backend"] == "static"
        assert payload["provenance"]["seed"] == 1  # config seed resolved
        assert payload["provenance"]["wall_time_seconds"] >= 0.0

    def test_result_relative_error(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8)
        assert result.relative_error(result.value) == pytest.approx(0.0)


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_estimate_before_open_raises(self):
        engine = JoinEstimationEngine(EngineConfig())
        with pytest.raises(IndexNotBuiltError, match="not open"):
            engine.estimate(0.8)

    def test_double_open_raises(self):
        engine = JoinEstimationEngine(EngineConfig()).open()
        with pytest.raises(ValidationError, match="already open"):
            engine.open()
        engine.close()

    def test_close_idempotent_and_reopenable(self, small_collection):
        engine = JoinEstimationEngine(EngineConfig(num_hashes=8))
        engine.open()
        engine.close()
        engine.close()
        engine.open()  # a closed engine can be reopened fresh
        engine.ingest(small_collection)
        assert engine.size == small_collection.size
        engine.close()

    def test_context_manager_opens_and_closes(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            assert engine.is_open
        assert not engine.is_open

    @staticmethod
    def _engine_with_failing_close():
        engine = JoinEstimationEngine(EngineConfig(num_hashes=8)).open()

        def explode():
            raise RuntimeError("backend close failed")

        engine.backend.close = explode
        return engine

    def test_close_counts_even_when_backend_close_raises(self):
        engine = self._engine_with_failing_close()
        with pytest.raises(RuntimeError, match="backend close failed"):
            engine.close()
        # the error surfaced once; the engine is closed, a second close
        # must not re-raise (double-close would mask the original cause)
        assert not engine.is_open
        engine.close()

    def test_exit_during_exception_does_not_mask_original(self):
        engine = self._engine_with_failing_close()
        with pytest.raises(ValueError, match="body error") as excinfo:
            with engine:
                raise ValueError("body error")
        # the with-body error stays primary; the backend close failure is
        # chained as context instead of replacing it
        context = excinfo.value.__context__
        assert isinstance(context, RuntimeError)
        assert "backend close failed" in str(context)
        assert not engine.is_open

    def test_exit_without_exception_still_raises_close_error(self):
        engine = self._engine_with_failing_close()
        with pytest.raises(RuntimeError, match="backend close failed"):
            with engine:
                pass
        assert not engine.is_open

    def test_constructor_accepts_dict_and_path(self, tmp_path):
        config = EngineConfig(seed=9)
        path = tmp_path / "c.json"
        config.to_file(path)
        assert JoinEstimationEngine(config.to_dict()).config == config
        assert JoinEstimationEngine(path).config == config

    def test_describe_shows_config_and_backend(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            description = engine.describe()
        assert description["config"]["backend"] == "static"
        assert description["backend"]["size"] == small_collection.size

    def test_describe_is_cheap_on_an_unbuilt_static_backend(self, small_collection):
        """describe() never forces (or crashes on) the lazy static build."""
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            assert engine.describe()["backend"] == {"size": 0, "total_pairs": 0}
            engine.ingest(small_collection)
            description = engine.describe()["backend"]
            assert description["size"] == small_collection.size
            assert "num_collision_pairs" not in description  # still unbuilt
            engine.estimate(0.8)
            assert "num_collision_pairs" in engine.describe()["backend"]

    def test_ingest_rejects_garbage(self):
        with JoinEstimationEngine(EngineConfig()) as engine:
            with pytest.raises(ValidationError, match="cannot ingest"):
                engine.ingest(3.14)

    def test_estimate_rejects_garbage_request(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="needs a threshold"):
                engine.estimate()
            with pytest.raises(ValidationError, match="cannot estimate"):
                engine.estimate(object())
            with pytest.raises(ValidationError, match="positionally and by keyword"):
                engine.estimate(0.8, threshold=0.9)

    def test_estimate_kwargs_override_request_fields(self, small_collection):
        """Keywords alongside a request envelope win over its fields."""
        config = EngineConfig(backend="streaming", num_hashes=8, seed=1,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            request = EstimateRequest(0.8, mode="auto", seed=2)
            overridden = engine.estimate(request, mode="exact", seed=5)
            explicit = engine.estimate(EstimateRequest(0.8, mode="exact", seed=5))
        assert overridden.provenance.mode == "exact"
        assert overridden.provenance.seed == 5
        assert overridden.value == explicit.value
        # dict requests get the same treatment, and a threshold keyword
        # completes a threshold-less dict
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate({"threshold": 0.8}, estimator="rs", seed=4)
            completed = engine.estimate({"mode": "exact"}, threshold=0.8, seed=4)
        assert result.estimator == "RS(pop)"
        assert completed.threshold == 0.8
        assert completed.provenance.mode == "exact"


# ----------------------------------------------------------------------
# Bit-identity against direct construction (the engine contract)
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_static_matches_direct(self, small_collection):
        config = EngineConfig(backend="static", num_hashes=10, seed=5)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(EstimateRequest(0.8, seed=3))
        index = LSHIndex(small_collection, num_hashes=10, random_state=6)
        direct = LSHSSEstimator(index.primary_table).estimate(0.8, random_state=3)
        assert via_engine.value == direct.value

    def test_static_estimator_flavors_match_direct(self, small_collection):
        config = EngineConfig(backend="static", num_hashes=10, seed=5)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(0.8, estimator="rs", seed=4)
        direct = RandomPairSampling(small_collection).estimate(0.8, random_state=4)
        assert via_engine.value == direct.value
        assert via_engine.estimator == direct.estimator

    def test_streaming_matches_direct(self, small_collection):
        dimension = small_collection.dimension
        config = EngineConfig(backend="streaming", num_hashes=10, seed=5,
                              dimension=dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(EstimateRequest(0.8, seed=3, mode="auto"))
        index = MutableLSHIndex(dimension, num_hashes=10, random_state=6)
        estimator = StreamingEstimator(index, random_state=7)
        index.insert_many(small_collection.matrix)
        direct = estimator.estimate(0.8, random_state=3, mode="auto")
        assert via_engine.value == direct.value

    @pytest.mark.parametrize("mode", ["exact", "auto"])
    def test_sharded_matches_direct(self, small_collection, mode):
        dimension = small_collection.dimension
        config = EngineConfig(
            backend="sharded", num_hashes=10, seed=5, dimension=dimension,
            options={"num_shards": 3, "batch_size": 64},
        )
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            via_engine = engine.estimate(EstimateRequest(0.8, seed=3, mode=mode))
        index = ShardedMutableIndex(
            dimension, num_shards=3, num_hashes=10, random_state=6,
        )
        router = ShardRouter(index, batch_size=64)
        estimator = ShardedStreamingEstimator(index, router=router, random_state=7)
        index.insert_many(small_collection.matrix)
        direct = estimator.estimate(0.8, random_state=3, mode=mode)
        router.close()
        assert via_engine.value == direct.value

    def test_sharded_exact_matches_unsharded_engine(self, small_collection):
        """Shape-independence: sharded exact == streaming exact for one seed."""
        dimension = small_collection.dimension
        sharded_config = EngineConfig(
            backend="sharded", num_hashes=10, seed=5, dimension=dimension,
            options={"num_shards": 4},
        )
        streaming_config = EngineConfig(
            backend="streaming", num_hashes=10, seed=5, dimension=dimension
        )
        with JoinEstimationEngine(sharded_config) as sharded_engine:
            sharded_engine.ingest(small_collection)
            sharded = sharded_engine.estimate(EstimateRequest(0.7, seed=9, mode="exact"))
        with JoinEstimationEngine(streaming_config) as streaming_engine:
            streaming_engine.ingest(small_collection)
            unsharded = streaming_engine.estimate(EstimateRequest(0.7, seed=9, mode="exact"))
        assert sharded.value == unsharded.value


# ----------------------------------------------------------------------
# Ingest forms and event handling
# ----------------------------------------------------------------------
class TestIngest:
    def _events(self):
        return [
            Insert([1.0, 0.0, 0.0]),
            Insert([1.0, 0.0, 0.0]),
            Insert([0.0, 1.0, 0.0]),
            Checkpoint("mid"),
            Delete(1),
        ]

    def test_changelog_and_event_forms(self):
        config = EngineConfig(backend="streaming", num_hashes=4, dimension=3)
        with JoinEstimationEngine(config) as engine:
            log = ChangeLog()
            log.extend(self._events())
            applied = engine.ingest(log)
            assert applied == 4  # checkpoint does not count
            assert engine.size == 2
            assert engine.ingest(Insert([0.0, 0.0, 1.0])) == 1
            assert engine.size == 3

    def test_static_rejects_deletes(self):
        config = EngineConfig(backend="static", num_hashes=4, dimension=3)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(Insert([1.0, 0.0, 0.0]))
            with pytest.raises(UnsupportedOperationError, match="immutable"):
                engine.ingest(Delete(0))

    def test_static_sparse_insert_needs_dimension(self):
        config = EngineConfig(backend="static", num_hashes=4)
        with JoinEstimationEngine(config) as engine:
            with pytest.raises(ValidationError, match="dimension"):
                engine.ingest(Insert({0: 1.0}))

    def test_static_infers_dimension_from_dense_insert(self):
        config = EngineConfig(backend="static", num_hashes=4)
        with JoinEstimationEngine(config) as engine:
            engine.ingest([Insert([1.0, 0.0]), Insert([1.0, 0.0])])
            assert engine.estimate(0.9, seed=0).value >= 0.0

    def test_static_estimate_without_ingest_raises(self):
        with JoinEstimationEngine(EngineConfig(num_hashes=4)) as engine:
            with pytest.raises(ValidationError, match="no ingested vectors"):
                engine.estimate(0.8)

    def test_static_rebuilds_after_further_ingest(self, small_collection):
        config = EngineConfig(backend="static", num_hashes=8, seed=2)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            first = engine.estimate(0.8, seed=1)
            engine.ingest(small_collection)  # doubles the corpus
            second = engine.estimate(0.8, seed=1)
        assert second.provenance.backend_details["size"] == 2 * small_collection.size
        assert first.provenance.backend_details["size"] == small_collection.size

    def test_sharded_checkpoint_flushes_buffered_writes(self, small_collection):
        """A checkpoint in an ingested log drains the router buffer."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=3,
                              options={"num_shards": 2, "batch_size": 1000})
        with JoinEstimationEngine(config) as engine:
            engine.ingest([Insert([1.0, 0.0, 0.0]), Insert([0.0, 1.0, 0.0])])
            # batch_size 1000: nothing flushed yet
            assert engine.backend.describe()["pending_writes"] == 2
            engine.ingest(Checkpoint("consistent"))
            assert engine.backend.describe()["pending_writes"] == 0
            assert engine.size == 2

    def test_mutable_backends_need_dimension(self):
        for backend in ("streaming", "sharded"):
            engine = JoinEstimationEngine(EngineConfig(backend=backend))
            with pytest.raises(ValidationError, match="dimension"):
                engine.open()

    def test_collection_dimension_mismatch_static(self, small_collection):
        config = EngineConfig(backend="static", dimension=small_collection.dimension + 1)
        with JoinEstimationEngine(config) as engine:
            with pytest.raises(ValidationError, match="dimension"):
                engine.ingest(small_collection)


# ----------------------------------------------------------------------
# Mode / estimator-flavor validation per backend
# ----------------------------------------------------------------------
class TestServingValidation:
    def test_static_rejects_streaming_modes(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="modes"):
                engine.estimate(0.8, mode="reservoir")

    def test_static_rejects_unknown_flavor(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8)) as engine:
            engine.ingest(small_collection)
            with pytest.raises(ValidationError, match="unknown estimator"):
                engine.estimate(0.8, estimator="magic")

    def test_static_default_flavor_from_options(self, small_collection):
        config = EngineConfig(num_hashes=8, seed=1, options={"estimator": "ju"})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            assert engine.estimate(0.8).estimator == "J_U"

    @pytest.mark.parametrize("backend", ["streaming", "sharded"])
    def test_single_estimator_backends_reject_flavors(self, backend, small_collection):
        config = EngineConfig(backend=backend, num_hashes=8,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            with pytest.raises(UnsupportedOperationError, match="single"):
                engine.estimate(0.8, estimator="lsh-ss")

    @pytest.mark.parametrize("backend", ["static", "streaming"])
    def test_rebalance_unsupported(self, backend, small_collection):
        config = EngineConfig(backend=backend, num_hashes=8,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            with pytest.raises(UnsupportedOperationError, match="rebalanc"):
                engine.rebalance(num_shards=2)


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------
class TestSnapshotRestore:
    def test_static_round_trip(self, small_collection, tmp_path):
        config = EngineConfig(num_hashes=8, seed=4)
        path = tmp_path / "static.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(0.8, seed=2)
            engine.snapshot(path)
        revived = JoinEstimationEngine.restore(path)
        assert revived.config == config
        after = revived.estimate(0.8, seed=2)
        revived.close()
        assert after.value == before.value

    def test_streaming_round_trip_reservoir_state(self, small_collection, tmp_path):
        config = EngineConfig(backend="streaming", num_hashes=8, seed=4,
                              dimension=small_collection.dimension)
        path = tmp_path / "stream.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
            revived = JoinEstimationEngine.restore(path)
            # reservoir mode draws from checkpointed sampled state: the
            # restored engine must replay it bit-identically
            again = revived.estimate(EstimateRequest(0.7, seed=9, mode="reservoir"))
            original = engine.estimate(EstimateRequest(0.7, seed=9, mode="reservoir"))
            revived.close()
        assert again.value == original.value

    def test_sharded_round_trip(self, small_collection, tmp_path):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3})
        path = tmp_path / "cluster.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
            engine.snapshot(path)
            # the facade reservoirs travel in the bundle and are adopted,
            # not redrawn: auto answers match the never-snapshotted engine
            before_auto = [engine.estimate(EstimateRequest(0.7, seed=s)).value for s in (1, 2)]
        revived = JoinEstimationEngine.restore(path)
        after = revived.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
        after_auto = [revived.estimate(EstimateRequest(0.7, seed=s)).value for s in (1, 2)]
        assert revived.config == config
        revived.close()
        assert after.value == before.value
        assert after_auto == before_auto

    def test_sharded_restore_keeps_serving_the_same_estimator(self, small_collection, tmp_path):
        # a second estimator observing the facade must not take over the
        # served slot on a restore, nor on the restore after that
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            StreamingEstimator(engine.backend.index, reservoir_size=16, random_state=99)
            engine.snapshot(tmp_path / "first.pkl")
            expected = [engine.estimate(EstimateRequest(0.7, seed=s)) for s in (1, 2)]
        with JoinEstimationEngine.restore(tmp_path / "first.pkl") as revived:
            revived.snapshot(tmp_path / "second.pkl")
        with JoinEstimationEngine.restore(tmp_path / "second.pkl") as twice:
            assert len(twice.backend.index.to_state()["estimators"]) == 2
            after = [twice.estimate(EstimateRequest(0.7, seed=s)) for s in (1, 2)]
        assert [e.value for e in after] == [e.value for e in expected]
        assert [e.details["reservoir_h"] for e in after] == [
            e.details["reservoir_h"] for e in expected
        ]

    def test_restore_config_override_must_match_kind(self, small_collection, tmp_path):
        config = EngineConfig(backend="streaming", num_hashes=8,
                              dimension=small_collection.dimension)
        path = tmp_path / "stream.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.snapshot(path)
        with pytest.raises(ValidationError, match="does not match"):
            JoinEstimationEngine.restore(path, config=EngineConfig(backend="static"))

    @pytest.mark.parametrize(
        "backend,options",
        [("streaming", {}), ("sharded", {"num_shards": 2})],
        ids=["streaming", "sharded"],
    )
    @pytest.mark.parametrize(
        "field,value", [("num_hashes", 12), ("dimension", 7)], ids=["num_hashes", "dimension"]
    )
    def test_restore_override_keeps_the_index(
        self, small_collection, tmp_path, backend, options, field, value
    ):
        # a mutable backend keeps the index it restores: a config naming
        # another k or d would report parameters the index does not hash with
        config = EngineConfig(backend=backend, num_hashes=8, seed=4,
                              dimension=small_collection.dimension, options=options)
        path = tmp_path / "bundle.pkl"
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
            engine.snapshot(path)
        with pytest.raises(ValidationError, match=field):
            JoinEstimationEngine.restore(path, config=config.replace(**{field: value}))
        # an override that agrees with the index is honoured
        agreeing = config.replace(seed=9)
        with JoinEstimationEngine.restore(path, config=agreeing) as revived:
            assert revived.config == agreeing
            after = revived.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
        assert after.value == before.value

    def test_process_restore_override_refused_before_any_worker(self, valid_states):
        state = valid_states["process-backend"]
        config = valid_states["configs"]["process"].replace(num_hashes=12)
        with pytest.raises(ValidationError, match="num_hashes"):
            resolve_backend("process").from_state(config, state)

    def test_restore_garbage_rejected(self, small_collection, tmp_path):
        path = tmp_path / "junk.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"hello": "world"}, handle)
        # bare index snapshots carry no config: engine bundles only
        raw_sharded = ShardedMutableIndex(
            small_collection.dimension, num_shards=2, num_hashes=8, random_state=5
        )
        raw_sharded.insert_many(small_collection.matrix)
        with open(tmp_path / "raw_sharded.pkl", "wb") as handle:
            pickle.dump(raw_sharded.to_state(), handle)
        raw_streaming = MutableLSHIndex(
            small_collection.dimension, num_hashes=8, random_state=5
        )
        raw_streaming.insert_many(small_collection.matrix)
        with open(tmp_path / "raw_streaming.pkl", "wb") as handle:
            pickle.dump(raw_streaming.to_state(), handle)
        for name in ("junk.pkl", "raw_sharded.pkl", "raw_streaming.pkl"):
            with pytest.raises(ValidationError, match="not an engine"):
                JoinEstimationEngine.restore(tmp_path / name)
        with pytest.raises(ValidationError, match="not found"):
            JoinEstimationEngine.restore(tmp_path / "absent.pkl")
        # ...and the low-level restores refuse engine bundles
        for backend, options in (("sharded", {"num_shards": 2}), ("streaming", {})):
            bundle = tmp_path / f"{backend}_bundle.pkl"
            config = EngineConfig(backend=backend, num_hashes=8, seed=4,
                                  dimension=small_collection.dimension, options=options)
            with JoinEstimationEngine(config) as engine:
                engine.ingest(small_collection)
                engine.snapshot(bundle)
            with open(bundle, "rb") as handle:
                state = pickle.load(handle)
            for index_class in (ShardedMutableIndex, MutableLSHIndex):
                with pytest.raises(ValidationError):
                    index_class.from_state(state)


# ----------------------------------------------------------------------
# Malformed snapshot states: every declared reader × every mutation
# ----------------------------------------------------------------------
_DIMENSION_CONFIG = {"num_hashes": 4, "seed": 4}


@pytest.fixture(scope="module")
def valid_states(tmp_path_factory):
    """One well-formed state per reader, built by the real writers."""
    from repro.datasets import make_dblp_like

    collection = make_dblp_like(num_vectors=60, random_state=1).collection
    dimension = collection.dimension
    index = MutableLSHIndex(dimension, num_hashes=4, random_state=1)
    index.insert_many(collection.matrix)
    StreamingEstimator(index, reservoir_size=16, random_state=2)
    sharded = ShardedMutableIndex(dimension, num_shards=3, num_hashes=4, random_state=1)
    sharded.insert_many(collection.matrix)
    states = {"index": index.to_state(), "sharded": sharded.to_state()}
    states["rows"] = states["index"]["rows"]
    states["estimator"] = states["index"]["estimators"][0]
    states["reservoir"] = states["estimator"]["reservoir_h"]
    states["cluster"] = states["sharded"]
    configs = {}
    for kind, options in (("static", {}), ("streaming", {}), ("sharded", {"num_shards": 3})):
        configs[kind] = EngineConfig(
            backend=kind, dimension=dimension, options=options, **_DIMENSION_CONFIG
        )
        path = tmp_path_factory.mktemp("bundles") / f"{kind}.pkl"
        with JoinEstimationEngine(configs[kind]) as engine:
            engine.ingest(collection)
            engine.snapshot(path)
        with open(path, "rb") as handle:
            bundle = pickle.load(handle)
        states[f"{kind}-backend"] = bundle["backend"]
        if kind == "streaming":
            states["engine"] = bundle
    configs["process"] = configs["sharded"].replace(backend="process")
    states["process-backend"] = {**states["sharded-backend"], "kind": "process-backend"}
    states["configs"] = configs
    return states


def _restore_backend(kind):
    def read(state, states, tmp_path):
        config = states["configs"][kind]
        resolve_backend(kind).from_state(config, state).close()

    return read


def _restore_engine(state, states, tmp_path):
    path = tmp_path / "bundle.pkl"
    with open(path, "wb") as handle:
        pickle.dump(state, handle)
    JoinEstimationEngine.restore(path).close()


def _restore_cluster(state, states, tmp_path):
    from repro.cluster import ClusterCoordinator

    ClusterCoordinator.from_state(state, request_timeout=30).close()


def _read_reservoir(state, states, tmp_path):
    from repro.streaming.estimator import _PairReservoir

    _PairReservoir.from_state(state, 16)


def _read_rows(state, states, tmp_path):
    from repro.streaming.rowstore import RowStore

    RowStore.from_state(state)


_UNTAGGED = ("not-a-mapping", "missing-key", "unknown-key", "wrong-type")
_TAGGED = _UNTAGGED + ("wrong-format", "wrong-kind")
#: sharded snapshots whose parts disagree: refused before any shard (or
#: worker) is built
_SHARD_LAYOUT = (
    "short-shards", "short-shard-of", "short-buckets", "format-1", "format-3", "index-shard",
    "shard-of-out-of-range", "shard-of-negative", "shard-of-wrong-shard",
    "bucket-off-its-pick", "buckets-repeat-a-key", "bucket-members-not-live",
)

class _ForeignFamily(LSHFamily):
    """A test-local family for some other measure: one bucket for everything."""

    def _initialise(self, dimension):
        pass

    def _hash_matrix(self, matrix):
        return np.zeros((matrix.shape[0], self.num_hashes), dtype=np.int64)


#: reader → (restore call, a field to drop / retype, applicable mutations)
_READERS = {
    "index": (
        lambda state, states, tmp_path: MutableLSHIndex.from_state(state),
        "dimension",
        _UNTAGGED + ("wrong-format", "short-tables", "two-tables", "foreign-family"),
    ),
    "rows": (_read_rows, "dimension", _UNTAGGED),
    "reservoir": (_read_reservoir, "left", _UNTAGGED),
    "estimator": (
        lambda state, states, tmp_path: StreamingEstimator.from_state(
            MutableLSHIndex(8, num_hashes=4), state
        ),
        "reservoir_size",
        _TAGGED + (
            "staleness-budget-above-one", "reservoir-target-size", "reservoir-overfull",
            "reservoir-negative-unseen",
        ),
    ),
    "sharded": (
        lambda state, states, tmp_path: ShardedMutableIndex.from_state(state),
        "num_shards",
        _TAGGED + _SHARD_LAYOUT + ("negative-live-id", "foreign-family"),
    ),
    "cluster": (_restore_cluster, "num_shards", _TAGGED + _SHARD_LAYOUT + ("foreign-family",)),
    "engine": (_restore_engine, "config", _TAGGED),
    "static-backend": (_restore_backend("static"), "matrix", _TAGGED),
    "streaming-backend": (
        _restore_backend("streaming"), "index", _TAGGED + ("no-estimator", "foreign-family")
    ),
    "sharded-backend": (
        _restore_backend("sharded"), "index", _TAGGED + ("no-estimator", "foreign-family")
    ),
    "process-backend": (
        _restore_backend("process"), "index", _TAGGED + ("no-estimator", "foreign-family")
    ),
}


def _mutate(state, mutation, field_name):
    state = dict(state)
    if mutation == "not-a-mapping":
        return list(state.items())
    if mutation == "missing-key":
        del state[field_name]
    elif mutation == "unknown-key":
        state["surplus"] = 1
    elif mutation == "wrong-type":
        state[field_name] = "x"
    elif mutation == "wrong-format":
        state["format"] = 99
    elif mutation == "format-1":
        # the sharded state before the facade estimator served every mode
        state.update(format=1, shard_estimators=True, estimator_kwargs={})
    elif mutation == "format-3":
        # the sharded state with a partitioner and an owner per bucket
        state.update(
            format=3,
            partitioner={"kind": "rendezvous", "num_shards": state["num_shards"]},
            buckets=[
                (key, members, KeyPartitioner(state["num_shards"]).shard_of(key))
                for key, members in state["buckets"]
            ],
        )
    elif mutation == "wrong-kind":
        state["kind"] = "bogus"
    elif mutation == "short-tables":
        state["tables"] = state["tables"][:-1]
    elif mutation == "two-tables":
        # a well-formed ℓ = 2 state; mutable indexes hold exactly one table
        state["num_tables"] = 2
        state["tables"] = state["tables"] * 2
        state["families"] = state["families"] * 2
    elif mutation == "index-shard":
        # a whole index state (table, family) in place of a shard's rows,
        # as format-2 shards carried
        rows = state["shards"][0]
        shard = MutableLSHIndex(rows["dimension"], num_hashes=4, family=state["family"])
        shard.insert_many(rows["matrix"], vector_ids=rows["ids"])
        state["shards"] = [shard.to_state(), *state["shards"][1:]]
    elif mutation == "short-shards":
        state["shards"] = state["shards"][:-1]
    elif mutation == "short-shard-of":
        state["shard_of"] = state["shard_of"][:-5]
    elif mutation == "negative-live-id":
        # the id → shard map is an id-indexed array: -1 would wrap around
        state["live_ids"] = [-1, *state["live_ids"][1:]]
    elif mutation == "short-buckets":
        # the facade's bucket list misses a bucket of live ids
        state["buckets"] = state["buckets"][:-1]
    elif mutation in ("shard-of-out-of-range", "shard-of-negative", "shard-of-wrong-shard"):
        # live id 0's row stays where it is; its assignment points elsewhere
        first = state["shard_of"][0]
        state["shard_of"] = [
            {
                "shard-of-out-of-range": state["num_shards"] + 4,
                "shard-of-negative": -1,
                "shard-of-wrong-shard": (first + 1) % state["num_shards"],
            }[mutation],
            *state["shard_of"][1:],
        ]
    elif mutation == "bucket-off-its-pick":
        # bucket 0 under an unused key whose pick is another shard than
        # the one its members' rows are assigned to
        key, members = state["buckets"][0]
        partitioner = KeyPartitioner(state["num_shards"])
        taken = {bucket_key for bucket_key, _members in state["buckets"]}
        signature = np.frombuffer(key, dtype=np.int64)
        key = next(
            moved for moved in ((signature + step).tobytes() for step in range(1, 1000))
            if moved not in taken and partitioner.shard_of(moved) != partitioner.shard_of(key)
        )
        state["buckets"] = [(key, members), *state["buckets"][1:]]
    elif mutation == "buckets-repeat-a-key":
        # bucket 1's members under bucket 0's key: no id repeats
        (key, _members), (_key, members) = state["buckets"][:2]
        state["buckets"] = [state["buckets"][0], (key, members), *state["buckets"][2:]]
    elif mutation == "bucket-members-not-live":
        key, members = state["buckets"][0]
        state["buckets"] = [(key, [*members, 10**5]), *state["buckets"][1:]]
    elif mutation == "staleness-budget-above-one":
        state["staleness_budget"] = 5.0
    elif mutation == "reservoir-target-size":
        state["reservoir_h"] = {**state["reservoir_h"], "target_size": 0}
    elif mutation == "reservoir-overfull":
        reservoir = state["reservoir_h"]
        state["reservoir_h"] = {
            **reservoir, "left": reservoir["left"] * 2, "right": reservoir["right"] * 2
        }
    elif mutation == "reservoir-negative-unseen":
        state["reservoir_l"] = {**state["reservoir_l"], "unseen_pairs": -1}
    elif mutation == "foreign-family":
        # a well-formed family for another measure: the estimators evaluate cosine
        if "index" in state:
            state["index"] = _mutate(state["index"], mutation, field_name)
        elif "families" in state:
            state["families"] = [_ForeignFamily(state["num_hashes"], random_state=0)]
        else:
            state["family"] = _ForeignFamily(state["num_hashes"], random_state=0)
    elif mutation == "no-estimator":
        state["index"] = {
            key: value for key, value in state["index"].items() if key != "estimators"
        }
    return state


@pytest.mark.timeout(120)
@pytest.mark.parametrize(
    "reader, mutation",
    [(reader, mutation) for reader, (_, _, mutations) in _READERS.items() for mutation in mutations],
)
def test_malformed_state_rejected(valid_states, tmp_path, reader, mutation):
    """A malformed snapshot ends in ValidationError, never a crash or a
    silently wrong restore (KeyError/AttributeError/TypeError or truncation)."""
    import copy

    read, field_name, _ = _READERS[reader]
    state = _mutate(copy.deepcopy(valid_states[reader]), mutation, field_name)
    with pytest.raises(ValidationError):
        read(state, valid_states, tmp_path)


def test_valid_states_restore(valid_states, tmp_path):
    """The table's inputs are well formed: unmutated, every reader accepts them."""
    for reader, (read, _, _) in _READERS.items():
        if reader not in ("cluster", "process-backend"):  # no workers spawned here
            read(valid_states[reader], valid_states, tmp_path)


# ----------------------------------------------------------------------
# Rebalancing through the front door
# ----------------------------------------------------------------------
class TestRebalance:
    def test_grow_preserves_exact_estimates(self, small_collection):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
            plan = engine.rebalance(num_shards=4)
            assert plan.moved_keys >= 0
            assert engine.backend.index.num_shards == 4
            engine.backend.index.check_invariants()
            after = engine.estimate(EstimateRequest(0.8, seed=2, mode="exact"))
        assert after.value == before.value

    def test_rebalance_keeps_auto_estimates(self, small_collection):
        """A rebalance moves buckets verbatim and never touches the facade
        reservoirs, so auto answers stay bit-identical."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2})

        def auto(engine):
            return [engine.estimate(EstimateRequest(0.7, seed=s)).value for s in (1, 2, 3)]

        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            before = auto(engine)
            assert engine.rebalance(num_shards=4).moved_keys > 0
            assert auto(engine) == before
            engine.rebalance(num_shards=3)
            assert auto(engine) == before

    def test_dry_run_leaves_data_placement_unchanged(self, small_collection):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            index = engine.backend.index
            placement = [shard.store.ids().tolist() for shard in index.shards]
            plan = engine.rebalance(num_shards=2, dry_run=True)
            assert plan.total_keys > 0 and plan.moved_keys > 0
            assert {move.source for move in plan.moves} == {2}  # a shrink moves shard 2 only
            assert [shard.store.ids().tolist() for shard in index.shards] == placement

    def test_growth_dry_run_is_side_effect_free(self, small_collection):
        """A growth dry run must not leave phantom shards behind."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            plan = engine.rebalance(num_shards=5, dry_run=True)
            assert plan.num_shards == 5
            assert engine.backend.index.num_shards == 2
            assert engine.describe()["backend"]["num_shards"] == 2
            assert engine.config == config

    def test_dry_run_sends_no_shard_request(self, small_collection, monkeypatch):
        """A dry run plans from the facade's bucket table: no shard is asked."""
        from repro.shard import ShardWorker

        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            engine.flush()
            sent = []
            send_request = ShardWorker.send_request

            def recording(worker, op, payload=None):
                sent.append(op)
                send_request(worker, op, payload)

            monkeypatch.setattr(ShardWorker, "send_request", recording)
            plan = engine.rebalance(num_shards=4, dry_run=True)
            assert sent == []
            assert plan.moved_keys > 0
            assert engine.backend.index.num_shards == 2

    def test_applied_rebalance_updates_config(self, small_collection, tmp_path):
        """Snapshots taken after a rebalance describe the adopted shape."""
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 2})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            router_before = engine.backend._router
            engine.rebalance(num_shards=4)
            assert engine.config.options["num_shards"] == 4
            # the router holds no per-shard state, so the same router and
            # serving estimator carry on over the resized cluster
            assert engine.backend._router is router_before
            assert engine.backend._estimator.router is engine.backend._router
            engine.ingest(small_collection)
            assert engine.size == 2 * small_collection.size
            path = tmp_path / "after.pkl"
            engine.snapshot(path)
        revived = JoinEstimationEngine.restore(path)
        assert revived.config.options["num_shards"] == 4
        revived.close()


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_resolve_unknown_kind(self):
        with pytest.raises(ValidationError, match="unknown backend"):
            resolve_backend("quantum")

    @pytest.mark.parametrize("kind", ["static", "streaming", "sharded", "process"])
    def test_declared_kinds_resolve(self, kind):
        backend_class = resolve_backend(kind)
        assert backend_class.kind == kind
        # reads on the process cluster are serialised (one outstanding
        # request per worker socket); every in-process backend allows many
        assert backend_class.CONCURRENT_READS is (kind != "process")


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
class TestProvenance:
    def test_sharded_provenance_fields(self, small_collection):
        config = EngineConfig(backend="sharded", num_hashes=8, seed=4,
                              dimension=small_collection.dimension,
                              options={"num_shards": 3})
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(EstimateRequest(0.8, seed=1))
        details = result.provenance.backend_details
        assert details["num_shards"] == 3
        assert 0.0 <= details["staleness"]["h"] <= 1.0
        assert 0.0 <= details["staleness"]["l"] <= 1.0
        assert sum(details["shard_sizes"]) == small_collection.size
        assert "partitioner" not in details
        assert details["pending_writes"] == 0
        assert details["num_collision_pairs"] + details["num_non_collision_pairs"] == (
            details["total_pairs"]
        )

    def test_streaming_provenance_has_staleness(self, small_collection):
        config = EngineConfig(backend="streaming", num_hashes=8, seed=4,
                              dimension=small_collection.dimension)
        with JoinEstimationEngine(config) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8)
        staleness = result.provenance.backend_details["staleness"]
        assert 0.0 <= staleness["h"] <= 1.0
        assert 0.0 <= staleness["l"] <= 1.0

    def test_explicit_request_seed_wins(self, small_collection):
        with JoinEstimationEngine(EngineConfig(num_hashes=8, seed=1)) as engine:
            engine.ingest(small_collection)
            result = engine.estimate(0.8, seed=123)
        assert result.provenance.seed == 123

    def test_errors_are_repro_errors(self):
        """CLI error handling catches one base type for every engine failure."""
        assert issubclass(UnsupportedOperationError, ReproError)
        assert issubclass(ValidationError, ReproError)
        assert issubclass(IndexNotBuiltError, ReproError)
