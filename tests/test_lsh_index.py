"""Tests for the multi-table LSH index and virtual-bucket view."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.lsh import LSHIndex, SignRandomProjectionFamily
from repro.vectors import VectorCollection


class TestCosineOnly:
    """The index draws SimHash tables; every other family is refused."""

    def test_cosine_name(self, small_collection):
        index = LSHIndex(small_collection, num_hashes=4, family="cosine", random_state=0)
        assert all(isinstance(table.family, SignRandomProjectionFamily) for table in index)

    @pytest.mark.parametrize(
        "family",
        ["jaccard", "angular", SignRandomProjectionFamily, SignRandomProjectionFamily(4)],
        ids=["jaccard", "angular", "class", "instance"],
    )
    def test_other_families_refused(self, small_collection, family):
        with pytest.raises(ValidationError, match="evaluate cosine"):
            LSHIndex(small_collection, num_hashes=4, family=family)


class TestIndexConstruction:
    def test_number_of_tables(self, small_index):
        assert len(small_index) == 3
        assert len(small_index.tables) == 3

    def test_tables_use_independent_hash_functions(self, small_index):
        signatures = [table.signatures for table in small_index.tables]
        assert not np.array_equal(signatures[0], signatures[1])

    def test_primary_table(self, small_index):
        assert small_index.primary_table is small_index.tables[0]
        assert small_index[0] is small_index.tables[0]

    def test_iteration(self, small_index):
        assert sum(1 for _ in small_index) == 3

    def test_invalid_num_tables(self, small_collection):
        with pytest.raises(ValidationError):
            LSHIndex(small_collection, num_tables=0)

    def test_deterministic_given_seed(self, small_collection):
        a = LSHIndex(small_collection, num_hashes=6, num_tables=2, random_state=4)
        b = LSHIndex(small_collection, num_hashes=6, num_tables=2, random_state=4)
        np.testing.assert_array_equal(a.tables[1].signatures, b.tables[1].signatures)

    def test_memory_estimate_sums_tables(self, small_index):
        total = small_index.memory_estimate_bytes()
        assert total == sum(t.memory_estimate_bytes() for t in small_index.tables)


class TestVirtualBuckets:
    def test_same_bucket_any_consistent_with_tables(self, small_index, rng):
        left = rng.integers(0, small_index.collection.size, size=100)
        right = rng.integers(0, small_index.collection.size, size=100)
        vectorised = small_index.same_bucket_any_many(left, right)
        scalar = [small_index.same_bucket_any(int(i), int(j)) for i, j in zip(left, right)]
        assert vectorised.tolist() == scalar

    def test_virtual_pairs_are_deduplicated_and_ordered(self, small_index):
        left, right = small_index.virtual_collision_pairs()
        assert np.all(left < right)
        keys = set(zip(left.tolist(), right.tolist()))
        assert len(keys) == left.size

    def test_virtual_pairs_superset_of_single_table(self, small_index):
        left, right = small_index.virtual_collision_pairs()
        virtual = set(zip(left.tolist(), right.tolist()))
        table_left, table_right = small_index.primary_table.collision_pairs_arrays()
        table_pairs = set(zip(table_left.tolist(), table_right.tolist()))
        assert table_pairs.issubset(virtual)

    def test_every_virtual_pair_collides_somewhere(self, small_index):
        left, right = small_index.virtual_collision_pairs()
        for u, v in zip(left[:200], right[:200]):
            assert small_index.same_bucket_any(int(u), int(v))

    def test_max_pairs_guard(self):
        # k=1 groups nearly everything together: enumeration must refuse.
        collection = VectorCollection.from_dense(np.random.default_rng(0).random((200, 4)))
        index = LSHIndex(collection, num_hashes=1, num_tables=2, random_state=1)
        with pytest.raises(ValidationError):
            index.virtual_collision_pairs(max_pairs=10)
