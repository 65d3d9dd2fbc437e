"""Tests for LSH-SS (Algorithm 1), the paper's main estimator."""

import math

import numpy as np
import pytest

from repro.core import (
    GeneralLSHSSEstimator,
    GeneralRandomPairSampling,
    LSHSSEstimator,
    PairedLSHTable,
    VirtualBucketEstimator,
)
from repro.core.lsh_ss import (
    LSHSSParameters,
    default_answer_threshold,
    default_sample_size,
    sample_stratum_h,
    sample_stratum_l,
)
from repro.errors import ValidationError
from repro.join import exact_join_size
from repro.lsh import LSHIndex, LSHTable, SignRandomProjectionFamily
from repro.rng import ensure_rng
from repro.shard import ShardedMutableIndex
from repro.shard.merge import ShardedStreamingEstimator
from repro.streaming import MutableLSHIndex, StreamingEstimator
from repro.vectors import VectorCollection


class TestDefaults:
    def test_default_sample_size(self):
        assert default_sample_size(400) == 400

    def test_default_answer_threshold_is_log2_n(self):
        assert default_answer_threshold(1024) == 10
        assert default_answer_threshold(400) == round(math.log2(400))
        assert default_answer_threshold(2) >= 1

    def test_parameters_resolve_only_the_unset_defaults(self):
        assert LSHSSParameters().resolve(1024) == (1024, 1024, 10)
        assert LSHSSParameters(7, None, 3, "auto").resolve(1024) == (7, 1024, 3)


def _family():
    return SignRandomProjectionFamily(4, random_state=0)


#: constructor name → builder(collection, **parameters)
_CONSTRUCTORS = {
    "LSHSSEstimator": lambda c, **kw: LSHSSEstimator(LSHTable(_family(), c), **kw),
    "VirtualBucketEstimator": lambda c, **kw: VirtualBucketEstimator(
        LSHIndex(c, num_hashes=4, num_tables=2, random_state=0), **kw
    ),
    "GeneralLSHSSEstimator": lambda c, **kw: GeneralLSHSSEstimator(
        PairedLSHTable(_family(), c, c), **kw
    ),
    "StreamingEstimator": lambda c, **kw: StreamingEstimator(
        MutableLSHIndex.from_collection(c, num_hashes=4, random_state=0), **kw
    ),
    "ShardedStreamingEstimator": lambda c, **kw: ShardedStreamingEstimator(
        ShardedMutableIndex(c.dimension, num_shards=2, num_hashes=4, random_state=0), **kw
    ),
    "GeneralRandomPairSampling": lambda c, **kw: GeneralRandomPairSampling(c, c, **kw),
}

_BAD_LSH_SS_PARAMETERS = [
    ("sample_size_h", 0),
    ("sample_size_h", -5),
    ("sample_size_l", 0),
    ("answer_threshold", 0),
    # bool is an Integral, but True is no sample size
    ("sample_size_h", True),
    ("sample_size_l", True),
    ("answer_threshold", True),
    ("dampening", 1.5),
    ("dampening", 2.0),
    ("dampening", 0.0),
    ("dampening", -1),
    ("dampening", "bogus"),
]

_REJECTIONS = [
    pytest.param(name, {key: value}, id=f"{name}-{key}={value}")
    for name in _CONSTRUCTORS
    if name != "GeneralRandomPairSampling"
    for key, value in _BAD_LSH_SS_PARAMETERS
] + [
    pytest.param("GeneralRandomPairSampling", {"sample_size": value},
                 id=f"GeneralRandomPairSampling-sample_size={value}")
    for value in (0, -3)
]


@pytest.mark.parametrize("name, parameters", _REJECTIONS)
def test_bad_parameters_rejected_at_construction(tiny_collection, name, parameters):
    with pytest.raises(ValidationError):
        _CONSTRUCTORS[name](tiny_collection, **parameters)


class TestStratumHelpers:
    def _make_pair_source(self, pairs):
        pairs = np.asarray(pairs)

        def source(size, rng):
            positions = rng.integers(0, pairs.shape[0], size=size)
            return pairs[positions, 0], pairs[positions, 1]

        return source

    def test_sample_stratum_h_scales_up(self):
        # population: 100 pairs of which 25 are true
        pairs = np.array([[i, i] for i in range(100)])
        similarities = np.where(np.arange(100) < 25, 0.9, 0.1)

        def evaluator(left, _right):
            return similarities[left]

        result = sample_stratum_h(
            stratum_size=100,
            pair_source=self._make_pair_source(pairs),
            similarity_evaluator=evaluator,
            threshold=0.5,
            sample_size=5000,
            rng=ensure_rng(0),
        )
        assert result.estimate == pytest.approx(25, rel=0.15)
        assert result.stratum_size == 100

    def test_sample_stratum_h_empty_stratum(self):
        result = sample_stratum_h(0, None, None, 0.5, 100, ensure_rng(0))
        assert result.estimate == 0.0
        assert result.sample_size == 0

    def test_sample_stratum_h_invalid_sample_size(self):
        with pytest.raises(ValidationError):
            sample_stratum_h(10, self._make_pair_source([[0, 0]]), lambda a, b: a, 0.5, 0, ensure_rng(0))

    def test_sample_stratum_l_reliable_path(self):
        pairs = np.array([[i, i] for i in range(1000)])
        similarities = np.where(np.arange(1000) < 100, 0.9, 0.1)

        def evaluator(left, _right):
            return similarities[left]

        result = sample_stratum_l(
            stratum_size=1000,
            pair_source=self._make_pair_source(pairs),
            similarity_evaluator=evaluator,
            threshold=0.5,
            answer_threshold=10,
            max_samples=5000,
            dampening=None,
            rng=ensure_rng(1),
        )
        assert result.reached_answer_threshold
        assert result.estimate == pytest.approx(100, rel=0.7)

    def test_sample_stratum_l_safe_lower_bound(self):
        pairs = np.array([[i, i] for i in range(1000)])
        similarities = np.full(1000, 0.1)

        def evaluator(left, _right):
            return similarities[left]

        result = sample_stratum_l(
            stratum_size=10**9,
            pair_source=self._make_pair_source(pairs),
            similarity_evaluator=evaluator,
            threshold=0.5,
            answer_threshold=5,
            max_samples=200,
            dampening=None,
            rng=ensure_rng(1),
        )
        assert not result.reached_answer_threshold
        assert result.estimate == result.true_in_sample == 0

    def test_sample_stratum_l_auto_dampening(self):
        pairs = np.array([[i, i] for i in range(1000)])
        similarities = np.where(np.arange(1000) < 5, 0.9, 0.1)  # 0.5% true

        def evaluator(left, _right):
            return similarities[left]

        result = sample_stratum_l(
            stratum_size=1_000_000,
            pair_source=self._make_pair_source(pairs),
            similarity_evaluator=evaluator,
            threshold=0.5,
            answer_threshold=50,
            max_samples=400,
            dampening="auto",
            rng=ensure_rng(3),
        )
        if not result.reached_answer_threshold and result.true_in_sample > 0:
            assert result.dampening_used == pytest.approx(result.true_in_sample / 50)
            assert result.estimate > result.true_in_sample

    def test_sample_stratum_l_empty_stratum(self):
        result = sample_stratum_l(0, None, None, 0.5, 5, 100, None, ensure_rng(0))
        assert result.estimate == 0.0


class TestLSHSSEstimator:
    def test_default_parameters_follow_paper(self, small_table, small_collection):
        estimator = LSHSSEstimator(small_table)
        n = small_collection.size
        assert estimator.sample_size_h == n
        assert estimator.sample_size_l == n
        assert estimator.answer_threshold == default_answer_threshold(n)
        assert estimator.name == "LSH-SS"

    def test_dampened_variant_renamed(self, small_table):
        assert LSHSSEstimator(small_table, dampening="auto").name == "LSH-SS(D)"
        assert LSHSSEstimator(small_table, dampening=0.5).name == "LSH-SS(D)"

    def test_estimate_in_feasible_range(self, small_table):
        estimator = LSHSSEstimator(small_table)
        for threshold in (0.1, 0.5, 0.9):
            value = estimator.estimate(threshold, random_state=0).value
            assert 0.0 <= value <= small_table.total_pairs

    def test_estimate_is_sum_of_strata(self, small_table):
        estimate = LSHSSEstimator(small_table).estimate(0.6, random_state=4)
        assert estimate.value == pytest.approx(
            estimate.details["stratum_h"] + estimate.details["stratum_l"]
        )

    def test_details_structure(self, small_table):
        details = LSHSSEstimator(small_table).estimate(0.5, random_state=0).details
        for key in (
            "stratum_h",
            "stratum_l",
            "true_in_sample_h",
            "true_in_sample_l",
            "samples_taken_l",
            "reached_answer_threshold",
            "num_collision_pairs",
            "num_non_collision_pairs",
        ):
            assert key in details

    def test_deterministic_given_seed(self, small_table):
        estimator = LSHSSEstimator(small_table)
        assert (
            estimator.estimate(0.7, random_state=11).value
            == estimator.estimate(0.7, random_state=11).value
        )

    def test_low_threshold_accuracy(self, small_table, small_histogram):
        """Theorem 3 regime: with β ≥ log n / n the estimate is within a small
        relative error on average."""
        threshold = 0.1
        true_size = small_histogram.join_size(threshold)
        estimator = LSHSSEstimator(small_table)
        estimates = [estimator.estimate(threshold, random_state=s).value for s in range(15)]
        assert np.mean(estimates) == pytest.approx(true_size, rel=0.35)

    def test_high_threshold_no_wild_overestimation(self, small_table, small_histogram):
        """Theorem 1 regime: LSH-SS should essentially never produce the huge
        overestimates random sampling produces at τ = 0.9."""
        threshold = 0.9
        true_size = small_histogram.join_size(threshold)
        estimator = LSHSSEstimator(small_table)
        estimates = np.array(
            [estimator.estimate(threshold, random_state=s).value for s in range(25)]
        )
        assert np.all(estimates <= 10 * max(true_size, 1))

    def test_variance_smaller_than_random_sampling_at_high_threshold(
        self, small_table, small_collection
    ):
        from repro.core import RandomPairSampling

        threshold = 0.9
        lsh_ss = LSHSSEstimator(small_table)
        random_sampling = RandomPairSampling(small_collection)
        lsh_values = [lsh_ss.estimate(threshold, random_state=s).value for s in range(20)]
        rs_values = [random_sampling.estimate(threshold, random_state=s).value for s in range(20)]
        assert np.std(lsh_values) < np.std(rs_values)

    def test_dampening_never_decreases_estimate(self, small_table):
        plain = LSHSSEstimator(small_table)
        dampened = LSHSSEstimator(small_table, dampening="auto")
        for seed in range(5):
            assert (
                dampened.estimate(0.6, random_state=seed).value
                >= plain.estimate(0.6, random_state=seed).value - 1e-9
            )

    def test_duplicate_heavy_collection_exact_duplicates_found(self):
        """A collection dominated by exact duplicates: stratum H carries the
        whole join and the estimate lands close to the truth."""
        rows = [[1.0, 0.0, 0.0, 0.0]] * 12 + [[0.0, 1.0, 0.0, 0.0]] * 8
        rng = np.random.default_rng(0)
        rows += [rng.standard_normal(4).tolist() for _ in range(80)]
        collection = VectorCollection.from_dense(rows)
        table = LSHTable(SignRandomProjectionFamily(12, random_state=5), collection)
        true_size = exact_join_size(collection, 0.99)
        estimator = LSHSSEstimator(table)
        estimates = [estimator.estimate(0.99, random_state=s).value for s in range(10)]
        assert np.mean(estimates) == pytest.approx(true_size, rel=0.35)
