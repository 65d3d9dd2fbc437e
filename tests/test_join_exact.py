"""Tests for the exact join oracle (block-wise sparse products)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.join import (
    all_pairs_join,
    exact,
    exact_general_join_size,
    exact_join_size,
    exact_join_sizes,
)
from repro.join.exact import exact_general_join_sizes
from repro.vectors import VectorCollection, cosine_similarity_matrix


def brute_force_join_size(collection, threshold):
    matrix = cosine_similarity_matrix(collection)
    n = collection.size
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i, j] >= threshold - 1e-12:
                count += 1
    return count


class TestExactJoinSizes:
    def test_matches_brute_force_on_tiny_collection(self, tiny_collection):
        for threshold in (0.1, 0.5, 0.7, 0.99, 1.0):
            assert exact_join_size(tiny_collection, threshold) == brute_force_join_size(
                tiny_collection, threshold
            )

    def test_matches_brute_force_on_random_collection(self):
        rng = np.random.default_rng(1)
        collection = VectorCollection.from_dense(np.abs(rng.standard_normal((60, 8))))
        for threshold in (0.2, 0.5, 0.8, 0.95):
            assert exact_join_size(collection, threshold) == brute_force_join_size(
                collection, threshold
            )

    def test_monotone_in_threshold(self, small_collection):
        thresholds = [0.1, 0.3, 0.5, 0.7, 0.9]
        sizes = exact_join_sizes(small_collection, thresholds)
        assert np.all(np.diff(sizes) <= 0)

    def test_block_size_independence(self, small_collection, monkeypatch):
        collection = VectorCollection(small_collection.matrix[:150])
        other = VectorCollection(small_collection.matrix[150:200])

        def answers():
            return (
                exact_join_sizes(collection, [0.2, 0.4]).tolist(),
                exact_general_join_sizes(collection, other, [0.2, 0.4]).tolist(),
                all_pairs_join(collection, 0.3),
            )

        expected = answers()
        assert expected[2]
        for block_size in (1, 7, collection.size + 1):
            monkeypatch.setattr(exact, "BLOCK_SIZE", block_size)
            assert answers() == expected

    def test_duplicates_counted_once_per_pair(self):
        collection = VectorCollection.from_dense([[1.0, 0.0]] * 4)
        assert exact_join_size(collection, 0.99) == 6

    def test_threshold_validation(self, tiny_collection):
        with pytest.raises(ValidationError):
            exact_join_size(tiny_collection, 0.0)
        with pytest.raises(ValidationError):
            exact_join_size(tiny_collection, 1.5)
        with pytest.raises(ValidationError):
            exact_join_sizes(tiny_collection, [])

    def test_selectivity(self, tiny_collection):
        selectivity = exact_join_size(tiny_collection, 0.99) / tiny_collection.total_pairs
        assert selectivity == pytest.approx(1.0 / tiny_collection.total_pairs)


class TestGeneralJoin:
    def test_matches_brute_force(self, tiny_collection):
        other = VectorCollection.from_dense(
            [[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]
        )
        matrix = cosine_similarity_matrix(tiny_collection, other)
        for threshold in (0.3, 0.7, 0.99):
            expected = int(np.count_nonzero(matrix >= threshold - 1e-12))
            assert exact_general_join_size(tiny_collection, other, threshold) == expected

    def test_no_distinctness_constraint(self, tiny_collection):
        # joining a collection with itself counts ordered pairs incl. self-matches
        size = exact_general_join_size(tiny_collection, tiny_collection, 0.999)
        self_join = exact_join_size(tiny_collection, 0.999)
        assert size == 2 * self_join + tiny_collection.size

    def test_dimension_mismatch(self, tiny_collection):
        other = VectorCollection.from_dense([[1.0, 2.0]])
        with pytest.raises(ValidationError):
            exact_general_join_size(tiny_collection, other, 0.5)

    def test_threshold_grid(self, tiny_collection):
        other = tiny_collection
        sizes = exact_general_join_sizes(tiny_collection, other, [0.2, 0.6, 0.95])
        assert np.all(np.diff(sizes) <= 0)
