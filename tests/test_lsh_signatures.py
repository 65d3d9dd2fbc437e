"""Tests for signature helpers and prefix-collision counts."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.lsh import SignRandomProjectionFamily, signature_matrix
from repro.lsh.signatures import (
    collision_pair_count,
    group_by_signature,
    prefix_collision_counts,
    signature_keys,
)


@pytest.fixture
def signatures():
    return np.array(
        [
            [1, 0, 1],
            [1, 0, 1],
            [1, 0, 0],
            [0, 1, 1],
        ],
        dtype=np.int64,
    )


class TestSignatureKeys:
    def test_full_keys_distinguish_rows(self, signatures):
        keys = signature_keys(signatures)
        assert keys[0] == keys[1]
        assert keys[0] != keys[2]
        assert len(keys) == 4

    def test_prefix_keys_merge_rows(self, signatures):
        keys = signature_keys(signatures, prefix_length=2)
        assert keys[0] == keys[1] == keys[2]
        assert keys[3] != keys[0]

    def test_invalid_prefix_length(self, signatures):
        with pytest.raises(ValidationError):
            signature_keys(signatures, prefix_length=0)
        with pytest.raises(ValidationError):
            signature_keys(signatures, prefix_length=4)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValidationError):
            signature_keys(np.array([1, 2, 3]))


class TestGrouping:
    def test_group_by_signature(self, signatures):
        groups = group_by_signature(signatures)
        sizes = sorted(ids.size for ids in groups.values())
        assert sizes == [1, 1, 2]

    def test_group_by_prefix(self, signatures):
        groups = group_by_signature(signatures, prefix_length=1)
        sizes = sorted(ids.size for ids in groups.values())
        assert sizes == [1, 3]

    def test_collision_pair_count(self):
        assert collision_pair_count(np.array([1, 2, 3, 4])) == 0 + 1 + 3 + 6
        assert collision_pair_count(np.array([], dtype=np.int64)) == 0


class TestPrefixCollisionCounts:
    def test_counts_are_non_increasing(self, signatures):
        counts = prefix_collision_counts(signatures)
        assert list(counts) == [3, 3, 1]
        assert all(counts[i] >= counts[i + 1] for i in range(len(counts) - 1))

    def test_counts_on_real_family(self, small_collection):
        family = SignRandomProjectionFamily(10, random_state=2)
        signatures = signature_matrix(family, small_collection)
        counts = prefix_collision_counts(signatures)
        assert counts.shape == (10,)
        assert np.all(np.diff(counts) <= 0)
        # the last value is exactly the number of co-bucket pairs N_H
        from repro.lsh import LSHTable

        table = LSHTable(family, small_collection, signatures=signatures)
        assert counts[-1] == table.num_collision_pairs

    def test_simhash_prefix_counts_estimate_moments(self, binary_collection):
        """For SimHash the expected prefix count equals the sum of p(s)^j over
        pairs; for j=1 this is the sum of the pairs' angular collision
        probabilities ``1 − θ/π``."""
        trials = 60
        first_counts = []
        for seed in range(trials):
            family = SignRandomProjectionFamily(1, random_state=seed)
            signatures = signature_matrix(family, binary_collection)
            first_counts.append(prefix_collision_counts(signatures)[0])
        from repro.vectors.similarity import cosine_similarity_matrix, cosine_to_angular_collision

        similarities = cosine_similarity_matrix(binary_collection, dense=True)
        upper = similarities[np.triu_indices(binary_collection.size, k=1)]
        expected = float(np.sum(cosine_to_angular_collision(upper)))
        assert np.mean(first_counts) == pytest.approx(expected, rel=0.35)

    def test_rejects_one_dimensional(self):
        with pytest.raises(ValidationError):
            prefix_collision_counts(np.array([1, 2, 3]))
