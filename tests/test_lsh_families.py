"""Tests for the LSH hash-function family and the cosine-only check.

The key property under test is Definition 3: the empirical collision rate
of SimHash must track its theoretical collision-probability curve
(:func:`~repro.vectors.similarity.cosine_to_angular_collision`) for pairs
of known cosine similarity.
"""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.lsh import SignRandomProjectionFamily
from repro.lsh.families import check_cosine_family
from repro.vectors import VectorCollection
from repro.vectors.similarity import cosine_similarity, cosine_to_angular_collision


def _pair_collection(u, v):
    return VectorCollection.from_dense([u, v])


class TestSignRandomProjection:
    def test_signature_shape_and_values(self, small_collection):
        family = SignRandomProjectionFamily(16, random_state=0)
        signatures = family.hash_collection(small_collection)
        assert signatures.shape == (small_collection.size, 16)
        assert set(np.unique(signatures)).issubset({0, 1})

    def test_identical_vectors_always_collide(self):
        collection = _pair_collection([1.0, 2.0, 3.0], [2.0, 4.0, 6.0])
        family = SignRandomProjectionFamily(64, random_state=1)
        signatures = family.hash_collection(collection)
        np.testing.assert_array_equal(signatures[0], signatures[1])

    def test_collision_probability_formula(self):
        assert cosine_to_angular_collision(1.0) == pytest.approx(1.0)
        assert cosine_to_angular_collision(0.0) == pytest.approx(0.5)
        assert cosine_to_angular_collision(-1.0) == pytest.approx(0.0)

    def test_empirical_collision_rate_matches_theory(self):
        rng = np.random.default_rng(7)
        dimension = 30
        base = rng.standard_normal(dimension)
        other = base + 0.6 * rng.standard_normal(dimension)
        collection = _pair_collection(base.tolist(), other.tolist())
        similarity = cosine_similarity(base, other)
        family = SignRandomProjectionFamily(4000, random_state=3)
        signatures = family.hash_collection(collection)
        empirical = float(np.mean(signatures[0] == signatures[1]))
        expected = cosine_to_angular_collision(similarity)
        assert empirical == pytest.approx(expected, abs=0.03)

    def test_bucket_collision_probability_is_power(self):
        """``g`` concatenates ``k`` independent hashes, so a pair shares a
        bucket with probability ``p(s)^k``."""
        collection = _pair_collection([1.0, 0.2, 0.0], [0.8, 0.6, 0.3])
        similarity = cosine_similarity([1.0, 0.2, 0.0], [0.8, 0.6, 0.3])
        k, trials = 3, 2000

        def same_bucket(seed):
            u, v = SignRandomProjectionFamily(k, random_state=seed).hash_collection(collection)
            return np.array_equal(u, v)

        rate = np.mean([same_bucket(seed) for seed in range(trials)])
        expected = cosine_to_angular_collision(similarity) ** k
        assert rate == pytest.approx(expected, abs=0.04)

    def test_dimension_mismatch_rejected(self, small_collection):
        family = SignRandomProjectionFamily(4, random_state=0)
        family.hash_collection(small_collection)
        other = VectorCollection.from_dense([[1.0, 2.0]])
        with pytest.raises(ValidationError):
            family.hash_collection(other)

    def test_deterministic_given_seed(self, small_collection):
        a = SignRandomProjectionFamily(8, random_state=5).hash_collection(small_collection)
        b = SignRandomProjectionFamily(8, random_state=5).hash_collection(small_collection)
        np.testing.assert_array_equal(a, b)

    def test_invalid_k(self):
        with pytest.raises(ValidationError):
            SignRandomProjectionFamily(0)


class TestHashMatrixCanonicalisation:
    def test_explicit_zeros_do_not_change_signatures_or_input(self):
        """hash_matrix must hash the logical vector, not the storage (a
        stored zero adds 0.0 to every projection), and must never mutate
        the caller's matrix."""
        from scipy import sparse

        data = np.array([1.0, 0.0, -2.0])  # explicit stored zero at column 2
        stored = sparse.csr_matrix((data, np.array([0, 2, 3]), [0, 3]), shape=(1, 6))
        canonical = stored.copy()
        canonical.eliminate_zeros()
        family = SignRandomProjectionFamily(64, random_state=0)
        np.testing.assert_array_equal(
            family.hash_matrix(stored), family.hash_matrix(canonical)
        )
        assert stored.nnz == 3  # caller's matrix untouched


class TestCosineOnly:
    """Every estimator evaluates cosine, so only SimHash is accepted."""

    def test_cosine_name_and_simhash_instance_accepted(self):
        check_cosine_family("cosine")
        check_cosine_family(SignRandomProjectionFamily(4, random_state=0))

    @pytest.mark.parametrize(
        "family", ["jaccard", "angular", "COSINE", "nope", None, 3.14, SignRandomProjectionFamily]
    )
    def test_other_families_refused(self, family):
        with pytest.raises(ValidationError, match="evaluate cosine"):
            check_cosine_family(family)

    def test_other_family_object_refused(self, foreign_family):
        with pytest.raises(ValidationError, match="evaluate cosine"):
            check_cosine_family(foreign_family)

    def test_instance_refused_where_only_a_name_is(self):
        with pytest.raises(ValidationError, match="must be the name string 'cosine'$"):
            check_cosine_family(SignRandomProjectionFamily(4, random_state=0), instance_ok=False)
