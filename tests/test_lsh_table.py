"""Tests for the extended LSH table (bucket counts, N_H, pair sampling)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import PairedLSHTable, VirtualBucketEstimator
from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh import LSHIndex, LSHTable, SignRandomProjectionFamily
from repro.lsh.table import sample_rejected_pairs, sample_uniform_pairs
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
    def test_same_bucket_many_matches_scalar(self, small_table, rng):
        left = rng.integers(0, small_table.num_vectors, size=50)
        right = rng.integers(0, small_table.num_vectors, size=50)
        vectorised = small_table.same_bucket_many(left, right)
        scalar = [small_table.same_bucket(int(i), int(j)) for i, j in zip(left, right)]
        assert vectorised.tolist() == scalar

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
        from_a = np.count_nonzero(duplicate_table.same_bucket_many(left, np.zeros_like(left)))
        from_b = np.count_nonzero(duplicate_table.same_bucket_many(left, np.full_like(left, 4)))
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


class TestCollisionPairsArrays:
    def test_enumeration_matches_count(self, duplicate_table):
        left, right = duplicate_table.collision_pairs_arrays()
        assert left.size == right.size == duplicate_table.num_collision_pairs
        assert np.all(left < right)
        assert len(set(zip(left.tolist(), right.tolist()))) == left.size

    def test_enumerated_pairs_share_bucket(self, duplicate_table):
        left, right = duplicate_table.collision_pairs_arrays()
        assert np.all(duplicate_table.same_bucket_many(left, right))


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
        owner = holder.primary_table
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

    monkeypatch.setattr(owner, attr, always_collides)
    with pytest.raises(InsufficientSampleError):
        sample_l(5, np.random.default_rng(0))
    assert len(batches) == 64  # the default max_attempts


# ----------------------------------------------------------------------
# Ids not in the table, on a bulk-built and an incrementally built table
# ----------------------------------------------------------------------
def _built_table(build, collection):
    family = SignRandomProjectionFamily(6, random_state=3)
    if build == "bulk":
        return LSHTable(family, collection)
    table = LSHTable(family)
    for vector_id, signature in enumerate(family.hash_collection(collection)):
        table.insert(vector_id, signature)
    return table


@pytest.mark.parametrize("build", ["bulk", "incremental"])
@pytest.mark.parametrize("absent", ["negative", "past-the-end", "deleted"])
def test_ids_not_in_the_table_are_refused(build, absent, small_collection):
    """A −1 must not wrap to the last vector, an id past the end must not
    raise a bare IndexError, and two absent ids must not compare equal."""
    table = _built_table(build, small_collection)
    n = table.num_vectors
    if absent == "deleted":
        table.delete(n - 1)
    missing = {"negative": -1, "past-the-end": n, "deleted": n - 1}[absent]
    live = n - 2
    for u, v in ((missing, live), (live, missing), (missing, missing)):
        with pytest.raises(ValidationError, match="not in the table"):
            table.same_bucket(u, v)
        with pytest.raises(ValidationError, match="not in the table"):
            table.same_bucket_many(np.array([live, u]), np.array([live, v]))


# ----------------------------------------------------------------------
# The one table against a dict-of-lists reference model
# ----------------------------------------------------------------------
class _ReferenceTable:
    """Dict-of-lists bucket table: buckets keyed by signature bytes in
    creation order, swap-pop member lists and a swap-pop live-id list."""

    def __init__(self):
        self.key_of = {}
        self.members = {}
        self.live = []

    def insert(self, vector_id, key):
        self.key_of[vector_id] = key
        self.members.setdefault(key, []).append(vector_id)
        self.live.append(vector_id)

    def delete(self, vector_id):
        key = self.key_of.pop(vector_id)
        for items in (self.members[key], self.live):
            position = items.index(vector_id)
            items[position] = items[-1]
            items.pop()
        if not self.members[key]:
            del self.members[key]

    @property
    def num_collision_pairs(self):
        return sum(len(m) * (len(m) - 1) // 2 for m in self.members.values())

    def sample_h(self, size, seed):
        """SampleH as the dict-of-lists table drew it: a CSR layout over
        the buckets with ≥ 2 members, in bucket order."""
        if self.num_collision_pairs == 0:
            raise InsufficientSampleError("stratum H is empty")
        buckets = [m for m in self.members.values() if len(m) >= 2]
        counts = np.array([len(m) for m in buckets], dtype=np.int64)
        offsets = np.concatenate([[0], np.cumsum(counts)])
        flat = np.array([i for m in buckets for i in m], dtype=np.int64)
        pair_counts = counts * (counts - 1) // 2
        eligible = np.flatnonzero(pair_counts > 0)
        weights = pair_counts[eligible].astype(np.float64)
        weights /= weights.sum()
        rng = np.random.default_rng(seed)
        chosen = rng.choice(eligible, size=size, p=weights)
        sizes = counts[chosen]
        first = (rng.random(size) * sizes).astype(np.int64)
        second = (rng.random(size) * (sizes - 1)).astype(np.int64)
        second = second + (second >= first)
        return flat[offsets[chosen] + first], flat[offsets[chosen] + second]

    def sample_l(self, size, seed):
        """SampleL as the dict-of-lists table drew it: uniform pairs of the
        live ids, rejected on key equality."""
        n = len(self.live)
        if n * (n - 1) // 2 - self.num_collision_pairs <= 0:
            raise InsufficientSampleError("stratum L is empty")
        population = np.asarray(self.live, dtype=np.int64)

        def draw(batch, rng):
            left, right = sample_uniform_pairs(population.size, batch, rng)
            return population[left], population[right]

        def collides(left, right):
            return np.array([self.key_of[u] == self.key_of[v] for u, v in zip(left, right)])

        return sample_rejected_pairs(size, 1, draw, collides, np.random.default_rng(seed))


def _outcome(sample):
    """A draw's arrays, or the exception type it raised."""
    try:
        left, right = sample()
    except InsufficientSampleError:
        return "InsufficientSampleError"
    return left.tolist(), right.tolist()


class _TableMachine(RuleBasedStateMachine):
    """Random insert/delete interleavings over nine buckets and 24 ids:
    buckets empty and come back (slot reuse), ids are deleted and reused."""

    def __init__(self):
        super().__init__()
        self.table = LSHTable(SignRandomProjectionFamily(2, random_state=0))
        self.model = _ReferenceTable()

    @rule(vector_id=st.integers(0, 23), signature=st.tuples(st.integers(0, 2), st.integers(0, 2)))
    def insert(self, vector_id, signature):
        if vector_id in self.model.key_of:
            with pytest.raises(ValidationError):
                self.table.insert(vector_id, np.array(signature))
            return
        self.table.insert(vector_id, np.array(signature))
        self.model.insert(vector_id, np.array(signature, dtype=np.int64).tobytes())

    @precondition(lambda self: self.model.live)
    @rule(data=st.data())
    def delete(self, data):
        vector_id = data.draw(st.sampled_from(sorted(self.model.live)))
        self.table.delete(vector_id)
        self.model.delete(vector_id)

    @invariant()
    def agrees_with_the_model(self):
        table, model = self.table, self.model
        table.check_invariants()
        assert table.num_collision_pairs == model.num_collision_pairs
        assert table.bucket_state() == [(k, list(m)) for k, m in model.members.items()]
        assert table.ids.tolist() == model.live
        ids = np.asarray(sorted(model.live), dtype=np.int64)
        left, right = np.repeat(ids, ids.size), np.tile(ids, ids.size)
        expected = [model.key_of[u] == model.key_of[v] for u, v in zip(left, right)]
        assert table.same_bucket_many(left, right).tolist() == expected
        for seed in (0, 1):
            assert _outcome(
                lambda: table.sample_collision_pairs(16, random_state=seed)
            ) == _outcome(lambda: model.sample_h(16, seed))
            assert _outcome(
                lambda: table.sample_non_collision_pairs(16, random_state=seed)
            ) == _outcome(lambda: model.sample_l(16, seed))


TestTableAgainstModel = _TableMachine.TestCase
TestTableAgainstModel.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_bulk_build_equals_incremental_inserts(small_collection):
    bulk = _built_table("bulk", small_collection)
    incremental = _built_table("incremental", small_collection)
    assert bulk.bucket_state() == incremental.bucket_state()
    assert bulk.ids.tolist() == incremental.ids.tolist()
    assert bulk.num_collision_pairs == incremental.num_collision_pairs
    for left, right in zip(bulk.collision_pairs_arrays(), incremental.collision_pairs_arrays()):
        np.testing.assert_array_equal(left, right)
    for seed in range(3):
        for sample in ("sample_collision_pairs", "sample_non_collision_pairs"):
            expected = getattr(bulk, sample)(64, random_state=seed)
            got = getattr(incremental, sample)(64, random_state=seed)
            np.testing.assert_array_equal(expected, got)
