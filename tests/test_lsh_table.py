"""Tests for the extended LSH table (bucket counts, N_H, pair sampling)."""

import numpy as np
import pytest

from repro.core import PairedLSHTable, VirtualBucketEstimator
from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh import LSHIndex, LSHTable, SignRandomProjectionFamily
from repro.lsh.table import sample_uniform_pairs
from repro.shard import ShardedMutableIndex
from repro.streaming import MutableLSHIndex
from repro.vectors import VectorCollection


@pytest.fixture
def duplicate_collection():
    """Ten vectors: two groups of near-duplicates plus scattered singletons."""
    rows = []
    rows.extend([[1.0, 0.0, 0.0, 0.0, 0.0]] * 4)  # group A: 4 identical vectors
    rows.extend([[0.0, 1.0, 1.0, 0.0, 0.0]] * 3)  # group B: 3 identical vectors
    rows.append([0.0, 0.0, 0.0, 1.0, 0.0])
    rows.append([0.0, 0.0, 0.0, 0.0, 1.0])
    rows.append([1.0, 1.0, 1.0, 1.0, 1.0])
    return VectorCollection.from_dense(rows)


@pytest.fixture
def duplicate_table(duplicate_collection):
    family = SignRandomProjectionFamily(8, random_state=21)
    return LSHTable(family, duplicate_collection)


class TestConstruction:
    def test_bucket_counts_sum_to_n(self, small_table, small_collection):
        assert int(small_table.bucket_counts.sum()) == small_collection.size

    def test_num_buckets_matches_counts(self, small_table):
        assert small_table.num_buckets == small_table.bucket_counts.size

    def test_collision_pairs_formula(self, small_table):
        counts = small_table.bucket_counts
        assert small_table.num_collision_pairs == int(np.sum(counts * (counts - 1) // 2))

    def test_strata_partition_all_pairs(self, small_table):
        assert (
            small_table.num_collision_pairs + small_table.num_non_collision_pairs
            == small_table.total_pairs
        )

    def test_identical_vectors_share_bucket(self, duplicate_table):
        assert duplicate_table.same_bucket(0, 1)
        assert duplicate_table.same_bucket(4, 6)

    def test_duplicate_groups_yield_expected_pairs(self, duplicate_table):
        # group A contributes C(4,2)=6 pairs, group B contributes C(3,2)=3.
        assert duplicate_table.num_collision_pairs >= 9

    def test_precomputed_signatures_accepted(self, small_collection):
        family = SignRandomProjectionFamily(6, random_state=3)
        signatures = family.hash_collection(small_collection)
        table = LSHTable(family, small_collection, signatures=signatures)
        assert table.num_buckets >= 1

    def test_wrong_signature_shape_rejected(self, small_collection):
        family = SignRandomProjectionFamily(6, random_state=3)
        with pytest.raises(ValidationError):
            LSHTable(family, small_collection, signatures=np.zeros((3, 6)))


class TestAccessors:
    def test_bucket_of_and_members_agree(self, small_table):
        for vector_id in range(0, small_table.num_vectors, 37):
            bucket = small_table.bucket_of(vector_id)
            assert vector_id in small_table.bucket_members(bucket)

    def test_bucket_of_out_of_range(self, small_table):
        with pytest.raises(ValidationError):
            small_table.bucket_of(small_table.num_vectors)

    def test_bucket_members_out_of_range(self, small_table):
        with pytest.raises(ValidationError):
            small_table.bucket_members(small_table.num_buckets)

    def test_same_bucket_many_matches_scalar(self, small_table, rng):
        left = rng.integers(0, small_table.num_vectors, size=50)
        right = rng.integers(0, small_table.num_vectors, size=50)
        vectorised = small_table.same_bucket_many(left, right)
        scalar = [small_table.same_bucket(int(i), int(j)) for i, j in zip(left, right)]
        assert vectorised.tolist() == scalar

    def test_bucket_assignments_cover_all_vectors(self, small_table):
        assert small_table.bucket_assignments.shape == (small_table.num_vectors,)
        assert small_table.bucket_assignments.max() < small_table.num_buckets

    def test_memory_estimate_positive_and_grows_with_k(self, small_collection):
        small_k = LSHTable(SignRandomProjectionFamily(5, random_state=1), small_collection)
        large_k = LSHTable(SignRandomProjectionFamily(30, random_state=1), small_collection)
        assert 0 < small_k.memory_estimate_bytes() < large_k.memory_estimate_bytes()


class TestCollisionPairSampling:
    def test_sampled_pairs_share_bucket(self, duplicate_table, rng):
        left, right = duplicate_table.sample_collision_pairs(200, random_state=rng)
        assert np.all(duplicate_table.same_bucket_many(left, right))
        assert np.all(left != right)

    def test_sample_size_zero(self, duplicate_table):
        left, right = duplicate_table.sample_collision_pairs(0)
        assert left.size == right.size == 0

    def test_negative_sample_size(self, duplicate_table):
        with pytest.raises(ValidationError):
            duplicate_table.sample_collision_pairs(-1)

    def test_empty_stratum_h_raises(self):
        # orthogonal vectors with many hashes: every bucket is a singleton
        collection = VectorCollection.from_dense(np.eye(6))
        table = LSHTable(SignRandomProjectionFamily(40, random_state=0), collection)
        if table.num_collision_pairs == 0:
            with pytest.raises(InsufficientSampleError):
                table.sample_collision_pairs(5)

    def test_bucket_weighting_is_proportional_to_pairs(self, duplicate_table):
        """Group A (6 pairs) must be sampled roughly twice as often as group B (3 pairs)."""
        left, right = duplicate_table.sample_collision_pairs(6000, random_state=7)
        bucket_a = duplicate_table.bucket_of(0)
        bucket_b = duplicate_table.bucket_of(4)
        from_a = np.count_nonzero(duplicate_table.bucket_assignments[left] == bucket_a)
        from_b = np.count_nonzero(duplicate_table.bucket_assignments[left] == bucket_b)
        assert from_a + from_b <= 6000
        assert from_a / max(from_b, 1) == pytest.approx(2.0, rel=0.2)

    def test_deterministic_given_seed(self, duplicate_table):
        first = duplicate_table.sample_collision_pairs(50, random_state=5)
        second = duplicate_table.sample_collision_pairs(50, random_state=5)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestNonCollisionPairSampling:
    def test_sampled_pairs_do_not_share_bucket(self, duplicate_table, rng):
        left, right = duplicate_table.sample_non_collision_pairs(200, random_state=rng)
        assert left.size == 200
        assert not np.any(duplicate_table.same_bucket_many(left, right))
        assert np.all(left != right)

    def test_sample_size_zero(self, duplicate_table):
        left, right = duplicate_table.sample_non_collision_pairs(0)
        assert left.size == 0

    def test_negative_sample_size(self, duplicate_table):
        with pytest.raises(ValidationError):
            duplicate_table.sample_non_collision_pairs(-3)

    def test_degenerate_single_bucket_raises(self):
        collection = VectorCollection.from_dense([[1.0, 0.0]] * 5)
        table = LSHTable(SignRandomProjectionFamily(4, random_state=0), collection)
        assert table.num_non_collision_pairs == 0
        with pytest.raises(InsufficientSampleError):
            table.sample_non_collision_pairs(3)


class TestIterCollisionPairs:
    def test_enumeration_matches_count(self, duplicate_table):
        pairs = list(duplicate_table.iter_collision_pairs())
        assert len(pairs) == duplicate_table.num_collision_pairs
        assert all(u != v for u, v in pairs)

    def test_enumerated_pairs_share_bucket(self, duplicate_table):
        for u, v in duplicate_table.iter_collision_pairs():
            assert duplicate_table.same_bucket(u, v)


class TestSampleUniformPairs:
    def test_no_self_pairs(self, rng):
        left, right = sample_uniform_pairs(10, 500, rng)
        assert np.all(left != right)
        assert left.min() >= 0 and right.max() < 10

    def test_single_vector_raises(self, rng):
        with pytest.raises(InsufficientSampleError):
            sample_uniform_pairs(1, 5, rng)

    def test_roughly_uniform_marginals(self, rng):
        left, right = sample_uniform_pairs(5, 20000, rng)
        counts = np.bincount(np.concatenate([left, right]), minlength=5)
        assert counts.min() > 0.8 * counts.mean()


# ----------------------------------------------------------------------
# The SampleH / SampleL contract, once for every holder
# ----------------------------------------------------------------------
HOLDERS = ("LSHTable", "MutableLSHIndex", "ShardedMutableIndex", "PairedLSHTable", "virtual")


def _holder(kind, collection):
    """``(sample_h, sample_l, owner, attr)``: samplers taking ``(size, rng)``
    and the attribute SampleL's collision test is looked up on."""
    family = SignRandomProjectionFamily(6, random_state=3)
    if kind == "virtual":
        index = LSHIndex(collection, num_hashes=6, num_tables=2, random_state=3)
        virtual = VirtualBucketEstimator(index)
        return virtual._sample_virtual_h, virtual._sample_virtual_l, index, "same_bucket_any_many"
    if kind == "LSHTable":
        holder = owner = LSHTable(family, collection)
    elif kind == "MutableLSHIndex":
        holder = MutableLSHIndex.from_collection(collection, num_hashes=6, random_state=3)
        owner = holder.primary_table
    elif kind == "ShardedMutableIndex":
        holder = ShardedMutableIndex.from_collection(
            collection, num_shards=3, num_hashes=6, random_state=3
        )
        owner = type(holder.primary_table)  # a fresh view per access
    else:
        half = collection.size // 2
        holder = owner = PairedLSHTable(
            family,
            collection.subset(list(range(half))),
            collection.subset(list(range(half, collection.size))),
        )
    return (
        lambda size, rng: holder.sample_collision_pairs(size, random_state=rng),
        lambda size, rng: holder.sample_non_collision_pairs(size, random_state=rng),
        owner,
        "same_bucket_many",
    )


@pytest.mark.timeout(60)
@pytest.mark.parametrize("kind", HOLDERS)
def test_sampler_contract(kind, small_collection, monkeypatch):
    """Negative size → ValidationError, size 0 → empty int64 arrays, and a
    SampleL whose every proposal collides gives up after max_attempts."""
    sample_h, sample_l, owner, attr = _holder(kind, small_collection)
    for sample in (sample_h, sample_l):
        with pytest.raises(ValidationError):
            sample(-1, np.random.default_rng(0))
        left, right = sample(0, np.random.default_rng(0))
        assert left.size == right.size == 0
        assert left.dtype == right.dtype == np.int64
    batches = []

    def always_collides(left, right):
        batches.append(len(left))
        return np.ones(len(left), dtype=bool)

    monkeypatch.setattr(
        owner, attr, staticmethod(always_collides) if isinstance(owner, type) else always_collides
    )
    with pytest.raises(InsufficientSampleError):
        sample_l(5, np.random.default_rng(0))
    assert len(batches) == 64  # the default max_attempts
