"""Tests for :class:`repro.vectors.collection.VectorCollection`."""

import numpy as np
import pytest
from scipy import sparse

from repro.errors import (
    DimensionMismatchError,
    EmptyCollectionError,
    ValidationError,
)
from repro.vectors import VectorCollection


class TestConstruction:
    def test_from_dense_shape(self):
        collection = VectorCollection.from_dense([[1.0, 2.0], [0.0, 3.0]])
        assert collection.size == 2
        assert collection.dimension == 2

    def test_from_sparse(self):
        matrix = sparse.random(5, 10, density=0.3, random_state=0, format="csr")
        collection = VectorCollection.from_sparse(matrix)
        assert collection.size == 5
        assert collection.dimension == 10

    def test_from_dicts(self):
        collection = VectorCollection.from_dicts([{0: 1.0, 3: 2.0}, {1: 4.0}])
        assert collection.size == 2
        assert collection.dimension == 4
        assert collection.row_dict(0) == {0: 1.0, 3: 2.0}

    def test_from_dicts_explicit_dimension(self):
        collection = VectorCollection.from_dicts([{0: 1.0}], dimension=10)
        assert collection.dimension == 10

    def test_from_dicts_dimension_too_small_raises(self):
        with pytest.raises(DimensionMismatchError):
            VectorCollection.from_dicts([{5: 1.0}], dimension=3)

    def test_from_dicts_negative_index_raises(self):
        with pytest.raises(ValidationError):
            VectorCollection.from_dicts([{-1: 1.0}])

    def test_from_dicts_empty_raises(self):
        with pytest.raises(EmptyCollectionError):
            VectorCollection.from_dicts([])

    def test_from_token_sets_is_binary(self):
        collection = VectorCollection.from_token_sets([{0, 2}, {1}], dimension=3)
        np.testing.assert_array_equal(
            collection.row_dense(0), np.array([1.0, 0.0, 1.0])
        )

    def test_empty_matrix_raises(self):
        with pytest.raises(EmptyCollectionError):
            VectorCollection(np.zeros((0, 3)))

    def test_zero_dimension_raises(self):
        with pytest.raises(ValidationError):
            VectorCollection(np.zeros((3, 0)))

    def test_non_finite_values_raise(self):
        with pytest.raises(ValidationError):
            VectorCollection.from_dense([[1.0, np.nan]])
        with pytest.raises(ValidationError):
            VectorCollection.from_dense([[np.inf, 1.0]])

    def test_one_dimensional_input_raises(self):
        with pytest.raises(ValidationError):
            VectorCollection(np.array([1.0, 2.0, 3.0]))

    def test_copy_isolates_caller_matrix(self):
        matrix = sparse.csr_matrix(np.eye(3))
        collection = VectorCollection(matrix, copy=True)
        matrix[0, 0] = 99.0
        assert collection.row_dense(0)[0] == 1.0

    def test_explicit_zeros_are_eliminated(self):
        matrix = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        matrix.data[0] = 0.0  # force an explicit zero
        collection = VectorCollection(matrix)
        assert collection.matrix.nnz == 1


class TestProperties:
    def test_len_matches_size(self, tiny_collection):
        assert len(tiny_collection) == tiny_collection.size == 6

    def test_total_pairs(self, tiny_collection):
        assert tiny_collection.total_pairs == 6 * 5 // 2

    def test_norms(self, tiny_collection):
        expected = np.array([1.0, 1.0, np.sqrt(2.0), 1.0, np.sqrt(2.0), 1.0])
        np.testing.assert_allclose(tiny_collection.norms, expected)

    def test_normalized_matrix_unit_rows(self, tiny_collection):
        norms = np.sqrt(
            np.asarray(
                tiny_collection.normalized_matrix.multiply(
                    tiny_collection.normalized_matrix
                ).sum(axis=1)
            ).ravel()
        )
        np.testing.assert_allclose(norms, np.ones(6), atol=1e-12)

    def test_normalized_matrix_handles_zero_rows(self):
        collection = VectorCollection.from_dicts([{0: 0.0}, {1: 3.0}], dimension=2)
        normalized = collection.normalized_matrix
        assert normalized[0].nnz == 0
        assert normalized[1, 1] == pytest.approx(1.0)

    def test_nnz_per_row(self, binary_collection):
        np.testing.assert_array_equal(
            binary_collection.nnz_per_row, np.array([4, 4, 4, 3, 5, 2])
        )

    def test_norms_cached(self, tiny_collection):
        assert tiny_collection.norms is tiny_collection.norms


class TestAccess:
    def test_row_returns_sparse_row(self, tiny_collection):
        row = tiny_collection.row(2)
        assert row.shape == (1, 4)
        assert row.nnz == 2

    def test_row_dense(self, tiny_collection):
        np.testing.assert_array_equal(
            tiny_collection.row_dense(3), np.array([0.0, 1.0, 0.0, 0.0])
        )

    def test_row_dict(self, tiny_collection):
        assert tiny_collection.row_dict(2) == {0: 1.0, 1: 1.0}

    def test_row_out_of_range(self, tiny_collection):
        with pytest.raises(ValidationError):
            tiny_collection.row(6)
        with pytest.raises(ValidationError):
            tiny_collection.row(-1)

    def test_subset_preserves_rows(self, tiny_collection):
        subset = tiny_collection.subset([0, 2, 4])
        assert subset.size == 3
        np.testing.assert_array_equal(subset.row_dense(1), tiny_collection.row_dense(2))

    def test_subset_out_of_range(self, tiny_collection):
        with pytest.raises(ValidationError):
            tiny_collection.subset([0, 99])

    def test_subset_empty_raises(self, tiny_collection):
        with pytest.raises(ValidationError):
            tiny_collection.subset([])

    def test_concat(self, tiny_collection):
        combined = tiny_collection.concat(tiny_collection)
        assert combined.size == 12
        np.testing.assert_array_equal(
            combined.row_dense(7), tiny_collection.row_dense(1)
        )

    def test_concat_dimension_mismatch(self, tiny_collection):
        other = VectorCollection.from_dense([[1.0, 2.0]])
        with pytest.raises(DimensionMismatchError):
            tiny_collection.concat(other)
