"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    collision_joint_probabilities,
    conditional_collision_probabilities,
    uniformity_estimate,
)
from repro.evaluation.metrics import summarize_trials
from repro.join import exact_join_size
from repro.lsh import LSHTable, SignRandomProjectionFamily
from repro.sampling.adaptive import AdaptiveSampleResult
from repro.vectors import VectorCollection, cosine_similarity
from repro.vectors.similarity import (
    angular_collision_to_cosine,
    cosine_to_angular_collision,
)

# Strategies -----------------------------------------------------------------

finite_floats = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)


@st.composite
def dense_collections(draw, min_rows=2, max_rows=12, min_cols=2, max_cols=6):
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    values = draw(
        st.lists(
            st.lists(finite_floats, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return np.asarray(values, dtype=np.float64)


@st.composite
def token_set_collections(draw):
    num_records = draw(st.integers(2, 12))
    records = draw(
        st.lists(
            st.sets(st.integers(0, 30), min_size=1, max_size=10),
            min_size=num_records,
            max_size=num_records,
        )
    )
    return records


# Vector / similarity invariants ----------------------------------------------


class TestSimilarityProperties:
    @given(dense_collections())
    @settings(max_examples=60, deadline=None)
    def test_cosine_similarity_bounded_and_symmetric(self, matrix):
        collection = VectorCollection.from_dense(matrix)
        value_01 = cosine_similarity(collection.row_dense(0), collection.row_dense(1))
        value_10 = cosine_similarity(collection.row_dense(1), collection.row_dense(0))
        assert -1.0 - 1e-9 <= value_01 <= 1.0 + 1e-9
        assert value_01 == pytest.approx(value_10, abs=1e-9)

    @given(dense_collections())
    @settings(max_examples=60, deadline=None)
    def test_self_similarity_is_one_for_nonzero_rows(self, matrix):
        collection = VectorCollection.from_dense(matrix)
        for row in range(collection.size):
            dense = collection.row_dense(row)
            if np.linalg.norm(dense) > 1e-9:
                assert cosine_similarity(dense, dense) == pytest.approx(1.0, abs=1e-9)

    @given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_angular_transform_round_trip(self, cosine):
        collision = cosine_to_angular_collision(cosine)
        assert 0.0 <= collision <= 1.0
        assert angular_collision_to_cosine(collision) == pytest.approx(cosine, abs=1e-9)

    @given(dense_collections(min_rows=3))
    @settings(max_examples=40, deadline=None)
    def test_join_size_monotone_in_threshold(self, matrix):
        collection = VectorCollection.from_dense(matrix)
        low = exact_join_size(collection, 0.2)
        mid = exact_join_size(collection, 0.6)
        high = exact_join_size(collection, 0.95)
        assert low >= mid >= high >= 0
        assert low <= collection.total_pairs


# LSH invariants ---------------------------------------------------------------


class TestLSHProperties:
    @given(token_set_collections(), st.integers(1, 16), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_strata_partition_all_pairs(self, token_sets, num_hashes, seed):
        collection = VectorCollection.from_token_sets(token_sets, dimension=31)
        table = LSHTable(SignRandomProjectionFamily(num_hashes, random_state=seed), collection)
        assert table.num_collision_pairs + table.num_non_collision_pairs == collection.total_pairs
        assert int(table.bucket_counts.sum()) == collection.size

    @given(token_set_collections(), st.integers(1, 12), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_identical_records_always_share_a_bucket(self, token_sets, num_hashes, seed):
        token_sets = list(token_sets) + [set(token_sets[0])]
        collection = VectorCollection.from_token_sets(token_sets, dimension=31)
        table = LSHTable(SignRandomProjectionFamily(num_hashes, random_state=seed), collection)
        assert table.same_bucket(0, len(token_sets) - 1)

    @given(token_set_collections(), st.integers(1, 10), st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_enumerated_collision_pairs_match_count(self, token_sets, num_hashes, seed):
        collection = VectorCollection.from_token_sets(token_sets, dimension=31)
        table = LSHTable(SignRandomProjectionFamily(num_hashes, random_state=seed), collection)
        left, right = table.collision_pairs_arrays()
        assert left.size == right.size == table.num_collision_pairs
        assert np.all(left < right) and np.all(table.same_bucket_many(left, right))


# Closed-form analysis invariants ----------------------------------------------


class TestAnalysisProperties:
    @given(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_joint_probabilities_form_a_distribution(self, threshold, num_hashes):
        joint = collision_joint_probabilities(threshold, num_hashes)
        values = [
            joint.same_bucket_false,
            joint.same_bucket_true,
            joint.different_bucket_false,
            joint.different_bucket_true,
        ]
        assert all(value >= -1e-12 for value in values)
        assert sum(values) == pytest.approx(1.0, abs=1e-9)

    @given(
        st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        st.integers(1, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_conditionals_ordered(self, threshold, num_hashes):
        conditional = conditional_collision_probabilities(threshold, num_hashes)
        assert 0.0 <= conditional["P(H|F)"] <= conditional["P(H|T)"] <= 1.0

    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        st.integers(1, 30),
    )
    @settings(max_examples=100, deadline=None)
    def test_uniformity_estimate_clamped_to_feasible_range(
        self, collisions, threshold, num_hashes
    ):
        total_pairs = 1e6
        value = uniformity_estimate(collisions, total_pairs, threshold, num_hashes)
        assert 0.0 <= value <= total_pairs


# Sampling / metrics invariants -------------------------------------------------


class TestSamplingAndMetricsProperties:
    @given(
        st.integers(0, 50),
        st.integers(1, 1000),
        st.integers(1, 1000),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_adaptive_estimate_is_non_negative(self, true_count, samples, max_samples, reached):
        samples = min(samples, max_samples)
        true_count = min(true_count, samples)
        result = AdaptiveSampleResult(
            true_count=true_count,
            samples_taken=samples,
            reached_answer_threshold=reached,
            answer_threshold=10,
            max_samples=max_samples,
        )
        assert result.estimate(10**7) >= 0.0
        assert result.estimate(10**7, dampening=0.5) >= 0.0

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_trial_summary_consistency(self, estimates, true_size):
        summary = summarize_trials(estimates, true_size)
        assert summary.num_trials == len(estimates)
        assert summary.mean_overestimation >= 0.0
        assert -1.0 <= summary.mean_underestimation <= 0.0
        assert (
            summary.num_overestimates + summary.num_underestimates <= summary.num_trials
        )
