"""SampleL's similarity calls on every shape: one per chunk of 1, 2, 4, … batches.

An exact τ = 0.9 estimate over near-orthogonal vectors never finds δ true
pairs in stratum L, so SampleL draws its whole budget of ``B`` batches.
With one SampleH call the estimate then makes ``1 + ⌈log₂(B + 1)⌉``
similarity calls (one per batch would be ``1 + B``).
"""

import math

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator
from repro.core import LSHSSEstimator
from repro.lsh import LSHTable, SignRandomProjectionFamily
from repro.obs import MetricsRegistry
from repro.shard import ShardedMutableIndex, ShardedStreamingEstimator
from repro.streaming import MutableLSHIndex, StreamingEstimator
from repro.vectors import VectorCollection

NUM_VECTORS = 1_200
NUM_HASHES = 10
SEED = 5
THRESHOLD = 0.9
#: SampleL's default budget is n pairs in draws of max(256, 8δ), δ = log2 n
BATCHES = math.ceil(NUM_VECTORS / max(256, 8 * round(math.log2(NUM_VECTORS))))
EXPECTED_CALLS = 1 + math.ceil(math.log2(BATCHES + 1))


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(SEED)
    return VectorCollection.from_dense(rng.standard_normal((NUM_VECTORS, 48)))


def counted(function, calls):
    """``function`` with one entry appended to ``calls`` per call."""

    def wrapped(*args):
        calls.append(args)
        return function(*args)

    return wrapped


def assert_budget_run(estimate):
    assert estimate.details["samples_taken_l"] == NUM_VECTORS
    assert not estimate.details["reached_answer_threshold"]


def test_budget_spans_several_batches():
    assert BATCHES >= 5
    assert EXPECTED_CALLS < 1 + BATCHES


def test_static(collection, monkeypatch):
    import repro.core.lsh_ss as lsh_ss

    calls = []
    monkeypatch.setattr(lsh_ss, "cosine_pairs", counted(lsh_ss.cosine_pairs, calls))
    table = LSHTable(SignRandomProjectionFamily(NUM_HASHES, random_state=SEED), collection)
    assert_budget_run(LSHSSEstimator(table).estimate(THRESHOLD, random_state=1))
    assert len(calls) == EXPECTED_CALLS


@pytest.mark.parametrize("shape", ["streaming", "sharded"])
def test_in_process_mutable(shape, collection):
    if shape == "streaming":
        index = MutableLSHIndex(collection.dimension, num_hashes=NUM_HASHES, random_state=SEED)
        estimator = StreamingEstimator(index)
    else:
        index = ShardedMutableIndex(
            collection.dimension, num_shards=3, num_hashes=NUM_HASHES, random_state=SEED,
        )
        estimator = ShardedStreamingEstimator(index)
    index.insert_many(collection.matrix)
    calls = []
    index.cosine_pairs = counted(index.cosine_pairs, calls)
    assert_budget_run(estimator.estimate(THRESHOLD, random_state=1, mode="exact"))
    assert len(calls) == EXPECTED_CALLS


@pytest.mark.timeout(120)
def test_process(collection):
    registry = MetricsRegistry()
    cluster = ClusterCoordinator(
        collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=SEED,
        request_timeout=30.0, metrics=registry,
    )
    try:
        cluster.insert_many(collection.matrix)
        gathers = registry.counter("cluster_requests_total", op="gather_rows")
        before = gathers.value
        estimate = ShardedStreamingEstimator(cluster).estimate(
            THRESHOLD, random_state=1, mode="exact"
        )
        assert_budget_run(estimate)
        # every call's pairs span both shards: one gather_rows per shard per call
        assert gathers.value - before == 2 * EXPECTED_CALLS
    finally:
        cluster.close()
