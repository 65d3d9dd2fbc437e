"""Tests for the one-pass similarity histogram."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.join import SimilarityHistogram, exact, exact_join_size, exact_join_sizes
from repro.vectors import VectorCollection


class TestSimilarityHistogram:
    def test_join_sizes_match_exact_oracle(self, small_collection, small_histogram):
        thresholds = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        expected = exact_join_sizes(small_collection, thresholds)
        observed = small_histogram.join_sizes(thresholds)
        np.testing.assert_array_equal(observed, expected)

    def test_total_pairs_conserved(self, small_collection, small_histogram):
        assert small_histogram.total_pairs == small_collection.total_pairs
        assert small_histogram.positive_pairs <= small_histogram.total_pairs

    def test_bin_counts_sum_to_positive_pairs(self, small_histogram):
        assert int(small_histogram.bin_counts.sum()) == small_histogram.positive_pairs

    def test_join_size_monotone(self, small_histogram):
        sizes = [small_histogram.join_size(t) for t in np.linspace(0.05, 1.0, 20)]
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))

    def test_selectivity(self, small_histogram):
        selectivity = small_histogram.selectivity(0.5)
        assert selectivity == small_histogram.join_size(0.5) / small_histogram.total_pairs

    def test_threshold_validation(self, small_histogram):
        with pytest.raises(ValidationError):
            small_histogram.join_size(0.0)
        with pytest.raises(ValidationError):
            small_histogram.join_size(1.0001)

    def test_invalid_construction_parameters(self, tiny_collection):
        with pytest.raises(ValidationError):
            SimilarityHistogram(tiny_collection, num_bins=0)

    def test_duplicate_pairs_land_in_top_bin(self):
        collection = VectorCollection.from_dense([[1.0, 0.0]] * 3 + [[0.0, 1.0]])
        histogram = SimilarityHistogram(collection, num_bins=10)
        assert histogram.join_size(1.0) == 3
        assert histogram.bin_counts[-1] == 3

    def test_block_size_independence(self, small_collection, monkeypatch):
        collection = VectorCollection(small_collection.matrix[:150])
        expected = SimilarityHistogram(collection, num_bins=100).bin_counts
        for block_size in (1, 7, collection.size + 1):
            monkeypatch.setattr(exact, "BLOCK_SIZE", block_size)
            observed = SimilarityHistogram(collection, num_bins=100).bin_counts
            np.testing.assert_array_equal(observed, expected)

    def test_moment_zero_is_positive_pair_count(self, small_histogram):
        assert small_histogram.moment(0) == pytest.approx(small_histogram.positive_pairs)

    def test_moments_decreasing(self, small_histogram):
        moments = [small_histogram.moment(order) for order in range(1, 6)]
        assert all(a >= b for a, b in zip(moments, moments[1:]))

    def test_moment_validation(self, small_histogram):
        with pytest.raises(ValidationError):
            small_histogram.moment(-1)

    def test_exact_on_grid_thresholds(self, small_collection):
        """Thresholds on the bin grid are answered exactly."""
        histogram = SimilarityHistogram(small_collection, num_bins=20)
        for threshold in (0.25, 0.5, 0.75):
            assert histogram.join_size(threshold) == exact_join_size(
                small_collection, threshold
            )
