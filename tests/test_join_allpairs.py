"""Tests for the All-Pairs join (the result pairs of a cosine self-join)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.join import all_pairs_join, exact_join_size
from repro.vectors import VectorCollection, cosine_similarity_matrix


def brute_force_pairs(collection, threshold):
    """``{(u, v): similarity}`` of every pair ``u < v`` reaching ``threshold``, densely."""
    matrix = cosine_similarity_matrix(collection)
    upper_u, upper_v = np.triu_indices(collection.size, k=1)
    keep = matrix[upper_u, upper_v] >= threshold - 1e-12
    return {
        (int(u), int(v)): float(matrix[u, v]) for u, v in zip(upper_u[keep], upper_v[keep])
    }


def random_collection():
    rng = np.random.default_rng(1)
    return VectorCollection.from_dense(np.abs(rng.standard_normal((60, 8))))


class TestAllPairsJoin:
    def test_size_matches_exact_oracle(self, small_collection):
        for threshold in (0.5, 0.7, 0.9):
            assert len(all_pairs_join(small_collection, threshold)) == exact_join_size(
                small_collection, threshold
            )

    def test_matches_dense_brute_force_on_tiny_collection(self, tiny_collection):
        for threshold in (0.1, 0.5, 0.7, 0.99, 1.0):
            self._assert_matches_brute_force(tiny_collection, threshold)

    def test_matches_dense_brute_force_on_random_collection(self):
        collection = random_collection()
        for threshold in (0.2, 0.5, 0.8, 0.95):
            self._assert_matches_brute_force(collection, threshold)

    @staticmethod
    def _assert_matches_brute_force(collection, threshold):
        expected = brute_force_pairs(collection, threshold)
        results = all_pairs_join(collection, threshold)
        assert [(u, v) for u, v, _ in results] == sorted(expected)
        for u, v, similarity in results:
            assert similarity == pytest.approx(expected[(u, v)], abs=1e-12)

    def test_returned_similarities_satisfy_threshold(self, small_collection):
        results = all_pairs_join(small_collection, 0.6)
        assert all(similarity >= 0.6 - 1e-9 for _, _, similarity in results)

    def test_pairs_are_ordered_and_distinct(self, small_collection):
        results = all_pairs_join(small_collection, 0.6)
        assert all(u < v for u, v, _ in results)
        assert len({(u, v) for u, v, _ in results}) == len(results)

    def test_similarity_values_are_correct(self, tiny_collection):
        results = {(u, v): s for u, v, s in all_pairs_join(tiny_collection, 0.5)}
        assert results[(0, 1)] == pytest.approx(1.0)
        assert results[(0, 2)] == pytest.approx(1.0 / np.sqrt(2.0))

    def test_empty_result_for_dissimilar_vectors(self):
        collection = VectorCollection.from_dense(np.eye(5))
        assert all_pairs_join(collection, 0.5) == []

    def test_threshold_validation(self, tiny_collection):
        with pytest.raises(ValidationError):
            all_pairs_join(tiny_collection, 0.0)

    def test_max_pairs_guard(self, tiny_collection):
        with pytest.raises(ValidationError):
            all_pairs_join(tiny_collection, 0.1, max_pairs=1)

    def test_max_pairs_boundary(self, small_collection):
        results = all_pairs_join(small_collection, 0.6)
        assert len(results) > 1
        assert all_pairs_join(small_collection, 0.6, max_pairs=len(results)) == results
        with pytest.raises(ValidationError):
            all_pairs_join(small_collection, 0.6, max_pairs=len(results) - 1)
