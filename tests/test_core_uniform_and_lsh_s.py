"""Tests for the J_U (uniformity) and LSH-S estimators."""

import numpy as np
import pytest

from repro.core import LSHSEstimator, UniformityEstimator
from repro.core.analysis import transform_threshold, uniformity_estimate
from repro.errors import ValidationError
from repro.lsh import LSHTable, SignRandomProjectionFamily
from repro.vectors import VectorCollection


class TestUniformityEstimator:
    def test_matches_closed_form(self, small_table):
        estimator = UniformityEstimator(small_table, collision_model="angular")
        threshold = 0.6
        expected = uniformity_estimate(
            small_table.num_collision_pairs,
            small_table.total_pairs,
            transform_threshold(threshold, "angular"),
            small_table.num_hashes,
        )
        assert estimator.estimate(threshold).value == pytest.approx(expected)

    def test_no_randomness_needed(self, small_table):
        estimator = UniformityEstimator(small_table)
        assert estimator.estimate(0.5).value == estimator.estimate(0.5, random_state=99).value

    def test_bounded_by_total_pairs(self, small_table):
        estimator = UniformityEstimator(small_table)
        for threshold in (0.1, 0.5, 0.9):
            value = estimator.estimate(threshold).value
            assert 0.0 <= value <= small_table.total_pairs

    def test_monotone_decreasing_in_threshold(self, small_table):
        estimator = UniformityEstimator(small_table)
        values = [estimator.estimate(t).value for t in (0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_ideal_model_on_simhash_table(self, binary_collection):
        table = LSHTable(SignRandomProjectionFamily(8, random_state=0), binary_collection)
        estimator = UniformityEstimator(table, collision_model="ideal")
        assert estimator.estimate(0.8).value >= 0.0

    def test_details(self, small_table):
        details = UniformityEstimator(small_table).estimate(0.5).details
        assert details["num_collision_pairs"] == small_table.num_collision_pairs
        assert 0.0 < details["transformed_threshold"] <= 1.0

    def test_exact_recovery_under_model_assumptions(self):
        """When bucket counts are consistent with the uniformity model the
        estimator recovers the join size exactly (synthetic sanity check)."""
        total_pairs = 10_000
        k = 6
        threshold = 0.7
        true_join = 500
        # N_H generated from the model with the ideal collision probability
        from repro.core.analysis import conditional_collision_probabilities

        conditional = conditional_collision_probabilities(threshold, k)
        collisions = (
            true_join * conditional["P(H|T)"]
            + (total_pairs - true_join) * conditional["P(H|F)"]
        )
        assert uniformity_estimate(collisions, total_pairs, threshold, k) == pytest.approx(
            true_join, rel=1e-9
        )


class TestLSHSEstimator:
    def test_estimate_in_range(self, small_table):
        estimator = LSHSEstimator(small_table, sample_size=800)
        for threshold in (0.2, 0.5, 0.8):
            value = estimator.estimate(threshold, random_state=0).value
            assert 0.0 <= value <= small_table.total_pairs

    def test_details_structure(self, small_table):
        estimate = LSHSEstimator(small_table, sample_size=500).estimate(0.4, random_state=1)
        details = estimate.details
        assert details["sample_size"] == 500
        assert 0.0 <= details["probability_h_given_f"] <= 1.0
        assert 0.0 <= details["probability_h_given_t"] <= 1.0
        assert isinstance(details["used_fallback_h_given_t"], bool)

    def test_fallback_used_when_no_true_pairs_in_sample(self):
        """At a threshold with an empty join the sample has no true pairs and
        the analytic fallback for P(H|T) is used — the failure mode the paper
        reports for LSH-S at high thresholds."""
        collection = VectorCollection.from_dense(np.eye(40))
        table = LSHTable(SignRandomProjectionFamily(10, random_state=1), collection)
        estimate = LSHSEstimator(table, sample_size=100).estimate(0.95, random_state=0)
        assert estimate.details["used_fallback_h_given_t"]

    def test_default_sample_size_is_n(self, small_table, small_collection):
        assert LSHSEstimator(small_table).sample_size == small_collection.size

    def test_invalid_sample_size(self, small_table):
        with pytest.raises(ValidationError):
            LSHSEstimator(small_table, sample_size=0)

    def test_deterministic_given_seed(self, small_table):
        estimator = LSHSEstimator(small_table)
        assert (
            estimator.estimate(0.5, random_state=7).value
            == estimator.estimate(0.5, random_state=7).value
        )

    def test_better_than_uniformity_at_low_threshold(self, small_table, small_histogram):
        """LSH-S weights the conditionals with actual sampled similarities, so
        on skewed data it should beat the raw uniformity assumption at a low
        threshold (where plenty of true pairs are sampled)."""
        threshold = 0.1
        true_size = small_histogram.join_size(threshold)
        uniformity = UniformityEstimator(small_table).estimate(threshold).value
        lsh_s_values = [
            LSHSEstimator(small_table, sample_size=2000).estimate(threshold, random_state=s).value
            for s in range(10)
        ]
        lsh_s_error = abs(np.mean(lsh_s_values) - true_size) / true_size
        uniformity_error = abs(uniformity - true_size) / true_size
        assert lsh_s_error < uniformity_error

    def test_name(self, small_table):
        assert LSHSEstimator(small_table).name == "LSH-S"
