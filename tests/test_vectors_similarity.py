"""Tests for cosine similarity and the cosine ↔ SimHash collision transform."""

import math

import numpy as np
import pytest

from repro.errors import DimensionMismatchError, ValidationError
from repro.vectors import (
    VectorCollection,
    cosine_pairs,
    cosine_similarity,
    cosine_similarity_matrix,
)
from repro.vectors.similarity import (
    angular_collision_to_cosine,
    cosine_to_angular_collision,
    pairwise_cosine,
)


class TestCosineSimilarity:
    def test_identical_vectors(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_opposite_vectors(self):
        assert cosine_similarity([1.0, 0.0], [-1.0, 0.0]) == pytest.approx(-1.0)

    def test_scale_invariance(self):
        assert cosine_similarity([1.0, 2.0], [10.0, 20.0]) == pytest.approx(1.0)

    def test_known_angle(self):
        assert cosine_similarity([1.0, 0.0], [1.0, 1.0]) == pytest.approx(
            1.0 / math.sqrt(2.0)
        )

    def test_zero_vector_gives_zero(self):
        assert cosine_similarity([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_sparse_rows(self, tiny_collection):
        value = cosine_similarity(tiny_collection.row(0), tiny_collection.row(2))
        assert value == pytest.approx(1.0 / math.sqrt(2.0))

    def test_dimension_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            cosine_similarity([1.0, 2.0], [1.0, 2.0, 3.0])


class TestCosinePairs:
    def test_matches_scalar_function(self, tiny_collection):
        left = [0, 0, 2, 4]
        right = [1, 3, 3, 5]
        batch = cosine_pairs(tiny_collection, left, right)
        for value, (i, j) in zip(batch, zip(left, right)):
            expected = cosine_similarity(
                tiny_collection.row_dense(i), tiny_collection.row_dense(j)
            )
            assert value == pytest.approx(expected, abs=1e-12)

    def test_empty_input(self, tiny_collection):
        assert cosine_pairs(tiny_collection, [], []).shape == (0,)

    def test_mismatched_lengths_raise(self, tiny_collection):
        with pytest.raises(ValidationError):
            cosine_pairs(tiny_collection, [0, 1], [2])

    def test_cross_collection(self, tiny_collection):
        other = VectorCollection.from_dense([[1.0, 0.0, 0.0, 0.0]])
        values = cosine_pairs(tiny_collection, [0, 3], [0, 0], other=other)
        assert values[0] == pytest.approx(1.0)
        assert values[1] == pytest.approx(0.0)

    @pytest.mark.parametrize(
        "left, right, message",
        [
            ([0, -1], [1, 2], "left index -1 is outside"),
            ([0, 1], [2, -3], "right index -3 is outside"),
            ([0, 6], [1, 2], "left index 6 is outside"),
            ([0, 1], [6, -1], "right index 6 is outside"),
        ],
    )
    def test_index_outside_collection_refused(self, tiny_collection, left, right, message):
        # a negative index must not wrap to the last rows
        assert tiny_collection.size == 6
        with pytest.raises(ValidationError, match=message):
            cosine_pairs(tiny_collection, left, right)

    def test_right_index_checked_against_other(self, tiny_collection):
        other = VectorCollection.from_dense([[1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="right index 1 is outside"):
            cosine_pairs(tiny_collection, [0], [1], other=other)

    def test_other_of_another_dimension_refused(self, tiny_collection):
        other = VectorCollection.from_dense([[1.0, 0.0, 0.0]])
        with pytest.raises(DimensionMismatchError):
            cosine_pairs(tiny_collection, [0], [0], other=other)

    def test_values_clipped_to_unit_interval(self, small_collection):
        left = np.arange(50)
        right = np.arange(50, 100)
        values = cosine_pairs(small_collection, left, right)
        assert np.all(values <= 1.0) and np.all(values >= -1.0)


class TestPairwiseCosine:
    def test_matches_cosine_similarity(self, tiny_collection):
        left, right = [0, 2, 5], [2, 4, 5]
        rows = tiny_collection.normalized_matrix
        values = pairwise_cosine(rows[left], rows[right])
        expected = [
            cosine_similarity(tiny_collection.row(i), tiny_collection.row(j))
            for i, j in zip(left, right)
        ]
        np.testing.assert_allclose(values, expected, atol=1e-12)

    def test_is_the_static_kernel(self, small_collection):
        rng = np.random.default_rng(0)
        left = rng.integers(0, small_collection.size, size=200)
        right = rng.integers(0, small_collection.size, size=200)
        rows = small_collection.normalized_matrix
        np.testing.assert_array_equal(
            pairwise_cosine(rows[left], rows[right]),
            cosine_pairs(small_collection, left, right),
        )


class TestSimilarityMatrix:
    def test_diagonal_is_one(self, tiny_collection):
        matrix = cosine_similarity_matrix(tiny_collection)
        np.testing.assert_allclose(np.diag(matrix), np.ones(6), atol=1e-12)

    def test_symmetry(self, tiny_collection):
        matrix = cosine_similarity_matrix(tiny_collection)
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-12)

    def test_matches_pairwise(self, tiny_collection):
        matrix = cosine_similarity_matrix(tiny_collection)
        assert matrix[0, 1] == pytest.approx(1.0)
        assert matrix[0, 3] == pytest.approx(0.0)

    def test_sparse_output(self, tiny_collection):
        matrix = cosine_similarity_matrix(tiny_collection, dense=False)
        assert matrix.shape == (6, 6)

    def test_dimension_mismatch(self, tiny_collection):
        other = VectorCollection.from_dense([[1.0, 2.0]])
        with pytest.raises(DimensionMismatchError):
            cosine_similarity_matrix(tiny_collection, other)


class TestAngularTransform:
    def test_identical_maps_to_one(self):
        assert cosine_to_angular_collision(1.0) == pytest.approx(1.0)

    def test_orthogonal_maps_to_half(self):
        assert cosine_to_angular_collision(0.0) == pytest.approx(0.5)

    def test_opposite_maps_to_zero(self):
        assert cosine_to_angular_collision(-1.0) == pytest.approx(0.0)

    def test_monotone(self):
        values = cosine_to_angular_collision(np.linspace(-1, 1, 21))
        assert np.all(np.diff(values) > 0)

    def test_round_trip(self):
        original = np.linspace(-0.99, 0.99, 17)
        recovered = angular_collision_to_cosine(cosine_to_angular_collision(original))
        np.testing.assert_allclose(recovered, original, atol=1e-10)

    def test_scalar_round_trip(self):
        assert angular_collision_to_cosine(
            cosine_to_angular_collision(0.8)
        ) == pytest.approx(0.8)
