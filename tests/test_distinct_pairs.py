"""Each distinct sampled pair is evaluated once per similarity call.

SampleH and SampleL draw with replacement, so one similarity call repeats
pairs.  ``estimate_strata`` hands the evaluator of every shape each
distinct ordered pair of a call once and scatters the values back.  The
answer must be bit-identical to the same estimate with that seam replaced
by the identity, with the same number of calls over the same pairs.
"""

import numpy as np
import pytest

import repro.core.lsh_ss as lsh_ss
from repro.cluster import ClusterCoordinator
from repro.core import GeneralLSHSSEstimator, LSHSSEstimator, PairedLSHTable
from repro.lsh import LSHTable, SignRandomProjectionFamily
from repro.shard import ShardedMutableIndex, ShardedStreamingEstimator
from repro.streaming import MutableLSHIndex, StreamingEstimator
from repro.vectors import VectorCollection
from repro.vectors.similarity import cosine_pairs

NUM_VECTORS = 600
NUM_HASHES = 10
SEED = 3
#: τ = 0.2 stops SampleL early; τ = 0.9 spends its whole budget
THRESHOLDS = (0.2, 0.9)


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(SEED)
    return VectorCollection.from_dense(rng.standard_normal((NUM_VECTORS, 24)))


def recorded(evaluator, calls):
    """``evaluator`` with the ordered pairs of each call appended to ``calls``."""

    def evaluate(left, right):
        calls.append(list(zip(np.asarray(left).tolist(), np.asarray(right).tolist())))
        return evaluator(left, right)

    return evaluate


def estimates_of(shape, collection, calls):
    """Every (τ, mode) estimate of one fresh ``shape`` deployment, in one order."""
    if shape == "static":
        family = SignRandomProjectionFamily(NUM_HASHES, random_state=SEED)
        estimator = LSHSSEstimator(LSHTable(family, collection))
        estimator._similarities = recorded(estimator._similarities, calls)
        return [estimator.estimate(t, random_state=s) for s, t in enumerate(THRESHOLDS)]
    if shape == "streaming":
        index = MutableLSHIndex(collection.dimension, num_hashes=NUM_HASHES, random_state=SEED)
        estimator = StreamingEstimator(index, random_state=SEED)
    elif shape == "sharded":
        index = ShardedMutableIndex(
            collection.dimension, num_shards=3, num_hashes=NUM_HASHES, random_state=SEED,
        )
        estimator = ShardedStreamingEstimator(index, random_state=SEED)
    else:
        index = ClusterCoordinator(
            collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=SEED,
            request_timeout=30.0,
        )
        estimator = ShardedStreamingEstimator(index, random_state=SEED)
    try:
        index.insert_many(collection.matrix)
        index.cosine_pairs = recorded(index.cosine_pairs, calls)
        return [
            estimator.estimate(t, random_state=s, mode=mode)
            for mode in ("auto", "exact")
            for s, t in enumerate(THRESHOLDS)
        ]
    finally:
        if shape == "process":
            index.close()


@pytest.mark.timeout(120)
@pytest.mark.parametrize("shape", ["static", "streaming", "sharded", "process"])
def test_each_distinct_pair_evaluated_once(shape, collection, monkeypatch):
    calls = []
    estimates = estimates_of(shape, collection, calls)
    for pairs in calls:
        assert len(set(pairs)) == len(pairs)

    plain_calls = []
    monkeypatch.setattr(lsh_ss, "_distinct_pair_evaluator", lambda evaluator: evaluator)
    plain = estimates_of(shape, collection, plain_calls)
    # the draws repeat pairs: without the seam the evaluator sees them
    assert any(len(set(pairs)) < len(pairs) for pairs in plain_calls)
    # one call per call, over the same pairs
    assert [set(pairs) for pairs in calls] == [set(pairs) for pairs in plain_calls]
    for got, want in zip(estimates, plain):
        assert got.value == want.value
        assert got.details == want.details


def test_general_join_keeps_swapped_pairs_apart(monkeypatch):
    # two collections: (i, j) pairs left row i with right row j, and
    # (j, i) is another pair with another cosine
    rng = np.random.default_rng(SEED)
    left = VectorCollection.from_dense(rng.standard_normal((4, 6)))
    right = VectorCollection.from_dense(rng.standard_normal((4, 6)))
    seen = []
    seam = lsh_ss._distinct_pair_evaluator

    def spy(evaluator):
        evaluate = seam(evaluator)

        def record(left_ids, right_ids):
            values = evaluate(left_ids, right_ids)
            seen.append((np.asarray(left_ids), np.asarray(right_ids), np.asarray(values)))
            return values

        return record

    monkeypatch.setattr(lsh_ss, "_distinct_pair_evaluator", spy)
    table = PairedLSHTable(SignRandomProjectionFamily(2, random_state=SEED), left, right)
    # δ above the budget: SampleL draws all 200 pairs of its ≤ 16-pair stratum
    GeneralLSHSSEstimator(
        table, sample_size_h=200, sample_size_l=200, answer_threshold=1_000
    ).estimate(0.5, random_state=1)
    differing_swaps = 0
    for left_ids, right_ids, values in seen:
        value_of = {}
        for i, j, value in zip(left_ids.tolist(), right_ids.tolist(), values.tolist()):
            assert value == cosine_pairs(left, [i], [j], other=right)[0]
            value_of[(i, j)] = value
        differing_swaps += sum(
            1 for (i, j), value in value_of.items()
            if (j, i) in value_of and value_of[(j, i)] != value
        )
    assert differing_swaps > 0


def test_bad_ids_reach_the_evaluator_unchanged():
    calls = []
    evaluate = lsh_ss._distinct_pair_evaluator(recorded(lambda left, right: left * 1.0, calls))
    # a negative id, and ids too large for a collision-free int64 key
    for left, right in (([3, -1, 3], [2, 0, 2]), ([2**62, 1, 2**62], [5, 5, 5])):
        values = evaluate(np.array(left), np.array(right))
        assert calls[-1] == list(zip(left, right))
        assert values.tolist() == [float(v) for v in left]


def test_values_scattered_back_to_input_order():
    rng = np.random.default_rng(SEED)
    left = rng.integers(0, 5, size=200)
    right = rng.integers(0, 5, size=200)
    calls = []
    evaluate = lsh_ss._distinct_pair_evaluator(
        recorded(lambda u, v: u * 10.0 + v, calls)
    )
    assert evaluate(left, right).tolist() == (left * 10.0 + right).tolist()
    assert len(calls) == 1 and len(calls[0]) == len(set(zip(left.tolist(), right.tolist())))
