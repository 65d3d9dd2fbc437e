"""Tests for uniform pair sampling and cross sampling."""

import numpy as np
import pytest

from repro.errors import InsufficientSampleError, ValidationError
from repro.sampling import CrossPairSampler, UniformPairSampler
from repro.vectors import VectorCollection


class TestUniformPairSampler:
    def test_population_size_self_join(self, small_collection):
        sampler = UniformPairSampler(small_collection)
        assert sampler.population_size == small_collection.total_pairs

    def test_no_self_pairs_in_self_join(self, small_collection):
        sampler = UniformPairSampler(small_collection)
        left, right = sampler.sample(5000, random_state=0)
        assert np.all(left != right)

    def test_sample_size_respected(self, small_collection):
        sampler = UniformPairSampler(small_collection)
        left, right = sampler.sample(123, random_state=0)
        assert left.size == right.size == 123

    def test_zero_sample(self, small_collection):
        left, right = UniformPairSampler(small_collection).sample(0)
        assert left.size == 0

    def test_negative_sample_raises(self, small_collection):
        with pytest.raises(ValidationError):
            UniformPairSampler(small_collection).sample(-1)

    def test_single_vector_collection_raises(self):
        single = VectorCollection.from_dense([[1.0, 2.0]])
        with pytest.raises(InsufficientSampleError):
            UniformPairSampler(single).sample(5)

    def test_deterministic_given_seed(self, small_collection):
        sampler = UniformPairSampler(small_collection)
        a = sampler.sample(40, random_state=9)
        b = sampler.sample(40, random_state=9)
        np.testing.assert_array_equal(a[0], b[0])

    def test_uniform_coverage(self):
        collection = VectorCollection.from_dense(np.eye(6))
        sampler = UniformPairSampler(collection)
        left, right = sampler.sample(30000, random_state=2)
        pair_ids = left * 6 + right
        unique = np.unique(pair_ids)
        assert unique.size == 30  # all ordered pairs i != j appear


class TestCrossPairSampler:
    def test_pairs_considered_matches_arrays(self, small_collection):
        sampler = CrossPairSampler(small_collection)
        left, right, considered = sampler.sample(100, random_state=0)
        assert left.size == right.size == considered

    def test_pair_budget_approximately_met(self, small_collection):
        sampler = CrossPairSampler(small_collection)
        _, _, considered = sampler.sample(400, random_state=0)
        # ceil(sqrt(400)) = 20 vectors -> C(20,2) = 190 pairs
        assert considered == 190

    def test_no_self_pairs(self, small_collection):
        left, right, _ = CrossPairSampler(small_collection).sample(100, random_state=3)
        assert np.all(left != right)

    def test_sampled_vectors_are_distinct(self, small_collection):
        left, right, _ = CrossPairSampler(small_collection).sample(225, random_state=4)
        # every unordered pair appears at most once
        keys = {(min(a, b), max(a, b)) for a, b in zip(left.tolist(), right.tolist())}
        assert len(keys) == left.size

    def test_invalid_budget(self, small_collection):
        with pytest.raises(ValidationError):
            CrossPairSampler(small_collection).sample(0)

    def test_budget_larger_than_population(self, tiny_collection):
        sampler = CrossPairSampler(tiny_collection)
        left, right, considered = sampler.sample(10_000, random_state=0)
        assert considered == tiny_collection.total_pairs
