"""Tests for the All-Pairs join and the Jaccard set join."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.join import all_pairs_join, exact_join_size
from repro.join.allpairs import all_pairs_join_size
from repro.vectors import VectorCollection


class TestAllPairsJoin:
    def test_size_matches_exact_oracle(self, small_collection):
        for threshold in (0.5, 0.7, 0.9):
            assert all_pairs_join_size(small_collection, threshold) == exact_join_size(
                small_collection, threshold
            )

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
