"""Tests for the Lattice-Counting adaptation."""

import numpy as np
import pytest

from repro.core import LatticeCountingEstimator
from repro.errors import ValidationError
from repro.lsh import LSHTable, SignRandomProjectionFamily
from repro.vectors import VectorCollection


class TestConstruction:
    def test_histogram_is_non_negative(self, small_table):
        estimator = LatticeCountingEstimator(small_table)
        assert np.all(estimator.histogram >= 0.0)

    def test_prefix_counts_exposed(self, small_table):
        estimator = LatticeCountingEstimator(small_table)
        assert estimator.prefix_counts.shape == (small_table.num_hashes,)
        assert np.all(np.diff(estimator.prefix_counts) <= 0)

    def test_invalid_parameters(self, small_table):
        with pytest.raises(ValidationError):
            LatticeCountingEstimator(small_table, num_bins=1)
        with pytest.raises(ValidationError):
            LatticeCountingEstimator(small_table, min_support=0)
        with pytest.raises(ValidationError):
            LatticeCountingEstimator(small_table, min_support=small_table.num_hashes + 1)


class TestEstimates:
    def test_estimates_monotone_in_threshold(self, small_table):
        estimator = LatticeCountingEstimator(small_table)
        values = [estimator.estimate(t).value for t in (0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))

    def test_estimate_bounded(self, small_table):
        estimator = LatticeCountingEstimator(small_table)
        for threshold in (0.1, 0.5, 0.9):
            value = estimator.estimate(threshold).value
            assert 0.0 <= value <= small_table.total_pairs

    def test_deterministic(self, small_table):
        estimator = LatticeCountingEstimator(small_table)
        assert estimator.estimate(0.5).value == estimator.estimate(0.5).value

    def test_details_contain_fit(self, small_table):
        details = LatticeCountingEstimator(small_table).estimate(0.5).details
        assert len(details["prefix_counts"]) == small_table.num_hashes
        assert len(details["histogram"]) == len(details["bin_centers"])

    def test_recovers_duplicate_mass_with_simhash(self):
        """With a collection whose only similar pairs are exact duplicates
        (every other pair is orthogonal), the recovered histogram should
        place roughly the duplicate-pair count at the top of the range."""
        token_sets = [{i, i + 100, i + 200} for i in range(60)]
        token_sets += [{0, 100, 200}] * 6  # 6 extra copies of record 0
        collection = VectorCollection.from_token_sets(token_sets)
        table = LSHTable(SignRandomProjectionFamily(16, random_state=2), collection)
        estimator = LatticeCountingEstimator(table)
        true_duplicate_pairs = 7 * 6 // 2
        assert estimator.estimate(0.95).value == pytest.approx(true_duplicate_pairs, rel=0.5)

    def test_inaccurate_at_high_threshold_on_cosine_data(
        self, small_table, small_histogram
    ):
        """The paper reports LC is consistently outperformed on cosine data
        with binary (sign) LSH functions; on the fixed test corpus its
        high-threshold estimate is off by a large factor."""
        threshold = 0.8
        true_size = small_histogram.join_size(threshold)
        estimate = LatticeCountingEstimator(small_table).estimate(threshold).value
        relative_error = abs(estimate - true_size) / max(true_size, 1)
        assert relative_error > 0.5

    def test_min_support_drops_low_order_moments(self, small_table):
        full = LatticeCountingEstimator(small_table, min_support=1)
        trimmed = LatticeCountingEstimator(small_table, min_support=5)
        # Both must produce valid bounded estimates; the fits differ.
        assert 0.0 <= trimmed.estimate(0.5).value <= small_table.total_pairs
        assert full.prefix_counts.shape == trimmed.prefix_counts.shape

    def test_sensitive_to_k(self, small_collection, small_histogram):
        """LC accuracy depends strongly on k (Figure 4's contrast with LSH-SS)."""
        threshold = 0.5
        values = []
        for k in (5, 30):
            table = LSHTable(SignRandomProjectionFamily(k, random_state=3), small_collection)
            values.append(LatticeCountingEstimator(table).estimate(threshold).value)
        # estimates at different k differ substantially (no stability guarantee)
        assert abs(values[0] - values[1]) > 0.2 * max(values[0], values[1], 1.0)
