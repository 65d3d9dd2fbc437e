"""Tests for the streaming subsystem (mutable index, estimator, events)."""

import warnings
from collections import Counter
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.core import LSHSSEstimator
from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh import LSHIndex, LSHTable, SignRandomProjectionFamily
from repro.shard import ShardedMutableIndex
from repro.streaming import (
    ChangeLog,
    Checkpoint,
    Delete,
    Insert,
    MutableLSHIndex,
    StreamingEstimator,
)
from repro.streaming.estimator import _PairReservoir
from repro.streaming.events import event_from_dict, event_to_dict
from repro.vectors import VectorCollection, coerce_matrix, coerce_row, cosine_pairs


def _bucket_stats(table: LSHTable):
    """Order-independent bucket fingerprint: (n, N_H, sorted bucket sizes)."""
    return (
        table.num_vectors,
        table.num_collision_pairs,
        sorted(table.bucket_counts.tolist()),
    )


@pytest.fixture
def mutable_index(small_collection) -> MutableLSHIndex:
    return MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)


class TestIncrementalLSHTable:
    def test_insert_delete_bookkeeping(self):
        family = SignRandomProjectionFamily(4, random_state=0)
        family.ensure_initialised(3)
        table = LSHTable(family)
        signature = np.array([1, 0, 1, 0])
        assert table.insert(0, signature) == 0
        assert table.insert(1, signature) == 1  # same bucket: one new pair
        assert table.insert(2, np.array([0, 0, 0, 0])) == 0
        assert table.num_collision_pairs == 1
        assert table.num_buckets == 2
        assert table.delete(1) == 1
        assert table.num_collision_pairs == 0
        table.check_invariants()

    def test_duplicate_id_rejected(self):
        table = LSHTable(SignRandomProjectionFamily(2, random_state=0))
        table.insert(5, np.array([1, 0]))
        with pytest.raises(ValidationError):
            table.insert(5, np.array([0, 1]))

    def test_unknown_id_delete_rejected(self):
        table = LSHTable(SignRandomProjectionFamily(2, random_state=0))
        with pytest.raises(ValidationError):
            table.delete(3)

    def test_wrong_signature_length_rejected(self):
        table = LSHTable(SignRandomProjectionFamily(3, random_state=0))
        with pytest.raises(ValidationError):
            table.insert(0, np.array([1, 0]))

    def test_sample_collision_pairs_share_bucket(self, mutable_index, rng):
        table = mutable_index.primary_table
        left, right = table.sample_collision_pairs(64, random_state=rng)
        assert np.all(table.same_bucket_many(left, right))
        assert np.all(left != right)

    def test_sample_collision_pairs_empty_stratum(self):
        table = LSHTable(SignRandomProjectionFamily(2, random_state=0))
        table.insert(0, np.array([1, 0]))
        with pytest.raises(InsufficientSampleError):
            table.sample_collision_pairs(4)


class TestMutableLSHIndex:
    def test_bulk_load_matches_static_build(self, small_collection):
        mutable = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        ).primary_table
        static = LSHIndex(small_collection, num_hashes=12, num_tables=1, random_state=19)
        static_table = static.primary_table
        assert mutable.num_collision_pairs == static_table.num_collision_pairs
        assert mutable.num_buckets == static_table.num_buckets
        assert sorted(mutable.bucket_counts.tolist()) == sorted(
            static_table.bucket_counts.tolist()
        )

    def test_incremental_inserts_match_bulk_load(self, small_collection):
        bulk = MutableLSHIndex.from_collection(small_collection, num_hashes=10, random_state=3)
        one_by_one = MutableLSHIndex(small_collection.dimension, num_hashes=10, random_state=3)
        for row in range(small_collection.size):
            one_by_one.insert(small_collection.row(row))
        assert one_by_one.num_collision_pairs == bulk.num_collision_pairs
        assert one_by_one.primary_table.signature_key(5) == bulk.primary_table.signature_key(5)

    def test_sequential_ids_never_reused(self, tiny_collection):
        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        first = index.insert(tiny_collection.row(0))
        second = index.insert(tiny_collection.row(1))
        assert (first, second) == (0, 1)
        index.delete(first)
        assert index.insert(tiny_collection.row(2)) == 2
        assert first not in index and second in index

    def test_insert_accepts_dict_dense_and_sparse(self):
        index = MutableLSHIndex(5, num_hashes=4, random_state=0)
        index.insert({0: 1.0, 3: 2.0})
        index.insert([0.0, 1.0, 0.0, 0.0, 1.0])
        index.insert(sparse.csr_matrix(np.array([[1.0, 0.0, 0.0, 1.0, 0.0]])))
        assert index.size == 3

    def test_insert_validation(self):
        index = MutableLSHIndex(3, num_hashes=4, random_state=0)
        with pytest.raises(ValidationError):
            index.insert({7: 1.0})  # out-of-range dimension index
        with pytest.raises(ValidationError):
            index.insert([1.0, 2.0])  # wrong dimensionality
        with pytest.raises(ValidationError):
            index.insert([1.0, float("nan"), 0.0])
        with pytest.raises(ValidationError):
            index.delete(99)

    def test_constructor_validation(self):
        with pytest.raises(ValidationError):
            MutableLSHIndex(0, num_hashes=4)
        with pytest.raises(ValidationError, match="k=3"):
            MutableLSHIndex(4, num_hashes=4, family=SignRandomProjectionFamily(3))

    @pytest.mark.parametrize(
        "index_class", [MutableLSHIndex, ShardedMutableIndex], ids=["mutable", "sharded"]
    )
    @pytest.mark.parametrize(
        "family",
        ["jaccard", "angular", SignRandomProjectionFamily, "family-object"],
        ids=["jaccard", "angular", "class", "object"],
    )
    def test_non_cosine_family_refused(self, index_class, family, foreign_family):
        """Every estimator evaluates cosine: only the name "cosine" or a
        SimHash instance is accepted."""
        if family == "family-object":
            family = foreign_family
        with pytest.raises(ValidationError, match="evaluate cosine"):
            index_class(4, num_hashes=4, family=family)

    @pytest.mark.parametrize("shape", ["short", "narrow"])
    def test_malformed_prepared_signatures_refused_before_mutation(self, small_collection, shape):
        """Rows for 4 ids with 2 signature rows, or 3 hashes for k=4, are
        refused whole: no row stored, no id live, invariants intact."""
        index = MutableLSHIndex(small_collection.dimension, num_hashes=4, random_state=0)
        index.insert_many(small_collection.matrix[:3])
        csr = small_collection.matrix[3:7].tocsr()
        signatures = index.family.hash_matrix(csr)
        bad = signatures[:2] if shape == "short" else signatures[:, :3]
        with pytest.raises(ValidationError, match="signature"):
            index.insert_many_prepared(np.arange(3, 7), csr, bad)
        with pytest.raises(ValidationError, match="signature"):
            index._insert_prepared(None, csr[0], bad[0] if shape == "narrow" else signatures)
        index.check_invariants()
        assert index.size == 3 and 3 not in index
        assert index.insert(csr[0]) == 3  # no id was consumed either

    def test_insert_delete_round_trip_restores_bucket_stats(self, mutable_index, small_collection):
        before = _bucket_stats(mutable_index.primary_table)
        pairs_before = mutable_index.num_collision_pairs
        extra_ids = [mutable_index.insert(small_collection.row(r)) for r in range(12)]
        assert mutable_index.num_collision_pairs > pairs_before  # duplicates collide
        for vector_id in extra_ids:
            mutable_index.delete(vector_id)
        mutable_index.check_invariants()
        assert _bucket_stats(mutable_index.primary_table) == before
        assert mutable_index.num_collision_pairs == pairs_before

    def test_strata_partition_all_pairs(self, mutable_index):
        assert (
            mutable_index.num_collision_pairs + mutable_index.num_non_collision_pairs
            == mutable_index.total_pairs
        )

    def test_cosine_pairs_matches_static(self, mutable_index, small_collection, rng):
        left = rng.integers(0, small_collection.size, size=50)
        right = rng.integers(0, small_collection.size, size=50)
        np.testing.assert_allclose(
            mutable_index.cosine_pairs(left, right),
            cosine_pairs(small_collection, left, right),
        )

    def test_cosine_pairs_unknown_id(self, mutable_index):
        with pytest.raises(ValidationError):
            mutable_index.cosine_pairs([10 ** 6], [0])

    def test_sample_non_collision_pairs_cross_bucket(self, mutable_index, rng):
        left, right = mutable_index.sample_non_collision_pairs(64, random_state=rng)
        table = mutable_index.primary_table
        assert not np.any(table.same_bucket_many(left, right))

    def test_to_collection_round_trip(self, mutable_index, small_collection):
        collection, ids = mutable_index.to_collection()
        assert collection.size == small_collection.size
        position = int(np.flatnonzero(ids == 7)[0])
        np.testing.assert_allclose(
            collection.row_dense(position), small_collection.row_dense(7)
        )

    def test_churn_matches_fresh_build(self, small_collection):
        """After arbitrary churn, N_H equals a fresh batch build's (same seed)."""
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=10, random_state=11)
        rng = np.random.default_rng(0)
        live = list(range(small_collection.size))
        for _ in range(60):
            victim = live.pop(int(rng.integers(0, len(live))))
            index.delete(victim)
        for row in range(20):
            index.insert(small_collection.row(row))
        final_collection, _ = index.to_collection()
        fresh = LSHIndex(final_collection, num_hashes=10, random_state=11)
        assert index.num_collision_pairs == fresh.primary_table.num_collision_pairs
        assert index.total_pairs == final_collection.total_pairs


def _scipy_coerce_row(vector, dimension: int) -> sparse.csr_matrix:
    """The scipy construction ``coerce_row`` canonicalised valid rows with
    before it went numpy-only — COO → CSR, ``eliminate_zeros``,
    ``sort_indices`` — kept here as the oracle for its output."""
    if isinstance(vector, Mapping):
        indices = np.asarray([int(i) for i in vector.keys()], dtype=np.int64)
        values = np.asarray([float(v) for v in vector.values()], dtype=np.float64)
        row = sparse.csr_matrix(
            (values, (np.zeros(indices.size, dtype=np.int64), indices)),
            shape=(1, dimension),
            dtype=np.float64,
        )
    elif sparse.issparse(vector):
        row = vector.tocsr().astype(np.float64, copy=True)
    else:
        dense = np.asarray(vector, dtype=np.float64)
        row = sparse.csr_matrix(dense[None, :] if dense.ndim == 1 else dense)
    row.eliminate_zeros()
    row.sort_indices()
    return row


_ROW_VALUES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
)


@st.composite
def _valid_rows(draw):
    """A valid row in one of the accepted shapes, with its dimension."""
    dimension = draw(st.integers(min_value=1, max_value=24))
    columns = draw(st.lists(
        st.integers(min_value=0, max_value=dimension - 1), unique=True, max_size=dimension
    ))  # drawn unsorted; may be empty
    values = [draw(_ROW_VALUES) for _ in columns]
    shape = draw(st.sampled_from(["dict", "numpy-keys", "str-keys", "sparse", "dense"]))
    if shape == "dict":
        return dict(zip(columns, values)), dimension
    if shape == "numpy-keys":
        key_type = draw(st.sampled_from([np.int32, np.int64, np.uint16]))
        return {key_type(c): v for c, v in zip(columns, values)}, dimension
    if shape == "str-keys":
        return {str(c): v for c, v in zip(columns, values)}, dimension
    if shape == "sparse":  # unsorted indices, explicit zeros kept
        return sparse.csr_matrix(
            (np.asarray(values, dtype=np.float64), np.asarray(columns, dtype=np.int32),
             np.array([0, len(columns)], dtype=np.int32)),
            shape=(1, dimension),
        ), dimension
    dense = np.zeros(dimension)
    dense[columns] = values
    return (dense if draw(st.booleans()) else dense.tolist()), dimension


class TestCoerceRow:
    @settings(max_examples=300, deadline=None)
    @given(_valid_rows())
    def test_matches_the_scipy_construction(self, case):
        vector, dimension = case
        expected = _scipy_coerce_row(vector, dimension)
        row = coerce_row(vector, dimension)
        assert row.shape == (1, dimension)
        for name in ("data", "indices", "indptr"):
            got, want = getattr(row, name), getattr(expected, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize(
        "vector, match",
        [
            ({1.5: 1.0}, "integers"),
            ({float("nan"): 1.0}, "integers"),
            ({1: 1.0, "1": 2.0}, "more than once"),
            ({"1": 1.0, "01": 0.0}, "more than once"),
            ({"a": 1.0}, "numbers"),
            ({None: 1.0}, "integers"),
            ({-1: 1.0}, r"lie in \[0, 4\)"),
            ({float("inf"): 1.0}, r"lie in \[0, 4\)"),
            ({1: 1 + 2j}, "real"),
            ({1: np.complex128(2.0)}, "real"),
            ({1: None}, "finite"),
            ({1: "a"}, "numbers"),
            ({1: float("nan")}, "finite"),
            ({(1, 2): 1.0}, "single numbers"),
            ({1: [1.0, 2.0]}, "single numbers"),
            ([1.0, 2j, 0.0, 0.0], "real"),
            (np.array([1.0, 0.0, 0.0, 1.0], dtype=np.complex128), "real"),
            ([1.0, None, 0.0, 0.0], "finite"),
            (sparse.csr_matrix(np.array([[1.0, 0.0, 1j, 0.0]])), "real"),
            (sparse.csr_matrix(
                (np.array([1.0, 2.0]), np.array([1, 1]), np.array([0, 2])), shape=(1, 4)
            ), "more than once"),
            ([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]], "one vector"),
        ],
        ids=[
            "float-key", "nan-key", "int-and-str-key", "str-and-padded-key",
            "word-key", "none-key", "negative-key", "inf-key", "complex-value",
            "numpy-complex-value", "none-value", "word-value", "nan-value",
            "tuple-key", "list-value",
            "dense-complex", "ndarray-complex", "dense-none",
            "sparse-complex", "sparse-repeated-column", "two-rows",
        ],
    )
    def test_malformed_row_refused(self, vector, match):
        """Indices integral, in range and unrepeated, values real and finite;
        anything else is refused — never truncated, summed or cast away
        with a ComplexWarning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                coerce_row(vector, 4)
            index = MutableLSHIndex(4, num_hashes=4, random_state=0)
            with pytest.raises(ValidationError, match=match):
                index.insert(vector)
        assert index.size == 0

    @pytest.mark.parametrize(
        "matrix, match",
        [
            (np.array([[1.0, 0.0, 0.0], [0.0, 1j, 0.0]]), "real"),
            (sparse.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 1j, 0.0]])), "real"),
            (sparse.csr_matrix(
                (np.ones(3), np.array([0, 2, 2]), np.array([0, 1, 3])), shape=(2, 3)
            ), "more than once"),
            ([[1.0, "a", 0.0]], "numbers"),
            (np.zeros((2, 2, 3)), "ndim=3"),
        ],
        ids=["dense-complex", "sparse-complex", "repeated-column", "word", "3-d"],
    )
    def test_malformed_matrix_refused(self, matrix, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                coerce_matrix(matrix, 3)

    def test_matrix_rows_spanning_a_row_boundary_are_no_repeat(self):
        """Column 2 ending row 0 and opening row 1 is not a repeat, and an
        unsorted row is sorted, not refused."""
        csr = sparse.csr_matrix(
            (np.array([1.0, 2.0, 3.0, 0.0]), np.array([2, 0, 2, 1]), np.array([0, 2, 4])),
            shape=(2, 3),
        )
        got = coerce_matrix(csr, 3)
        assert got.indices.tolist() == [0, 2, 2]
        assert got.data.tolist() == [2.0, 1.0, 3.0]
        assert csr.indices.tolist() == [2, 0, 2, 1]  # the caller's matrix is untouched

class TestChangeLogEvents:
    def test_jsonl_round_trip(self, tmp_path):
        log = ChangeLog()
        log.append(Insert({0: 1.0, 2: 0.5}))
        log.append(Insert([0.0, 1.0, 1.0]))
        log.append(Delete(0))
        log.append(Checkpoint("after-first"))
        path = tmp_path / "events.jsonl"
        log.to_jsonl(path)
        loaded = ChangeLog.from_jsonl(path)
        assert len(loaded) == 4
        assert loaded[0] == Insert({0: 1.0, 2: 0.5})
        assert loaded[1] == Insert([0.0, 1.0, 1.0])
        assert loaded[2] == Delete(0)
        assert loaded[3] == Checkpoint("after-first")
        assert loaded.num_mutations == 3

    def test_event_dict_errors(self):
        with pytest.raises(ValidationError):
            event_from_dict({"op": "upsert"})
        with pytest.raises(ValidationError):
            event_from_dict({"op": "insert"})
        with pytest.raises(ValidationError):
            event_from_dict({"op": "delete"})
        with pytest.raises(ValidationError):
            event_to_dict("not an event")

    @pytest.mark.parametrize(
        "payload, match",
        [
            ({"op": "delete", "id": 1.5}, "'id' must be an integer"),
            ({"op": "delete", "id": "x"}, "'id' must be an integer"),
            ({"op": "delete", "id": None}, "'id' must be an integer"),
            ({"op": "delete", "id": float("inf")}, "'id' must be an integer"),
            ({"op": "insert", "vector": {"a": 1.0}}, "'vector': vector indices must be numbers"),
            ({"op": "insert", "vector": {"1.5": 1.0}}, "'vector': vector indices must be integers"),
            ({"op": "insert", "vector": {"1": None}}, "'vector': vector values must be finite"),
            ({"op": "insert", "vector": {"1": "x"}}, "'vector': vector values must be numbers"),
            ({"op": "insert", "vector": {"1": 1j}}, "'vector': vector values must be real"),
            ({"op": "insert", "vector": {"1": float("nan")}},
             "'vector': vector values must be finite"),
            ({"op": "insert", "dense": [1.0, None]}, "'dense': vector values must be finite"),
            ({"op": "insert", "dense": [float("inf")]}, "'dense': vector values must be finite"),
        ],
        ids=[
            "fractional-id", "word-id", "none-id", "inf-id", "word-key", "fractional-key",
            "none-value", "word-value", "complex-value", "nan-value", "dense-none", "dense-inf",
        ],
    )
    def test_event_dict_refuses_malformed_fields(self, payload, match):
        """A fractional id must not delete another row, nor a stray key
        escape as a raw ValueError/TypeError."""
        with pytest.raises(ValidationError, match=match):
            event_from_dict(payload)

    @pytest.mark.parametrize(
        "event", [Insert({1.5: 1.0}), Delete(1.5), Insert([1.0, 2j])],
        ids=["float-key", "float-id", "complex-value"],
    )
    def test_event_to_dict_refuses_what_from_dict_would(self, event):
        """A log is never written with a truncated key or id."""
        with pytest.raises(ValidationError):
            event_to_dict(event)

    def test_event_dict_accepts_integral_spellings(self):
        assert event_from_dict({"op": "delete", "id": 3.0}) == Delete(3)
        assert event_from_dict({"op": "delete", "id": "3"}) == Delete(3)
        assert event_from_dict({"op": "delete", "id": np.int64(3)}) == Delete(3)
        event = event_from_dict({"op": "insert", "vector": {"3": 1, "2.0": "0.5", 7: 2.0}})
        assert event == Insert({3: 1.0, 2: 0.5, 7: 2.0})
        assert all(type(k) is int and type(v) is float for k, v in event.vector.items())

    def test_fractional_delete_in_a_log_is_refused(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            '{"op": "insert", "dense": [1.0, 0.0]}\n'
            '{"op": "insert", "dense": [0.0, 1.0]}\n'
            '{"op": "delete", "id": 1.5}\n'
        )
        with pytest.raises(ValidationError, match="'id' must be an integer"):
            ChangeLog.from_jsonl(path)

    def test_malformed_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"op": "insert", "dense": [1.0]}\nnot json\n')
        with pytest.raises(ValidationError):
            ChangeLog.from_jsonl(path)

    def test_replay_emits_estimates_at_checkpoints(self, small_collection):
        log = ChangeLog()
        for row in range(40):
            log.append(Insert(small_collection.row_dict(row)))
        log.append(Checkpoint("mid"))
        for row in range(40, 80):
            log.append(Insert(small_collection.row_dict(row)))
        log.append(Delete(3))
        log.append(Checkpoint("end"))
        index = MutableLSHIndex(small_collection.dimension, num_hashes=8, random_state=5)
        estimator = StreamingEstimator(index, random_state=1)
        results = log.replay(index, estimator=estimator, threshold=0.8, random_state=2)
        assert [label for label, _ in results] == ["mid", "end"]
        assert index.size == 79
        assert all(estimate.value >= 0 for _, estimate in results)

    def test_replay_matches_fresh_build_property(self, small_collection):
        """Acceptance property: replaying a log yields the strata a fresh
        LSH-SS build over the final collection reports (same seed)."""
        rng = np.random.default_rng(42)
        log = ChangeLog()
        live: list = []
        next_id = 0
        for step in range(200):
            if live and rng.random() < 0.3:
                victim = int(rng.choice(live))
                live.remove(victim)
                log.append(Delete(victim))
            else:
                row = int(rng.integers(0, small_collection.size))
                log.append(Insert(small_collection.row_dict(row)))
                live.append(next_id)
                next_id += 1
        index = MutableLSHIndex(small_collection.dimension, num_hashes=10, random_state=23)
        estimator = StreamingEstimator(index, random_state=7)
        log.replay(index)
        index.check_invariants()

        final_collection, _ = index.to_collection()
        fresh_index = LSHIndex(final_collection, num_hashes=10, random_state=23)
        fresh_estimator = LSHSSEstimator(fresh_index.primary_table)

        streamed = estimator.estimate(0.7, random_state=99, mode="exact")
        batch = fresh_estimator.estimate(0.7, random_state=99)
        assert streamed.details["num_collision_pairs"] == batch.details["num_collision_pairs"]
        assert (
            streamed.details["num_non_collision_pairs"]
            == batch.details["num_non_collision_pairs"]
        )

    def test_pure_insert_replay_estimates_identical_to_batch(self, small_collection):
        """With inserts only, exact-mode draws coincide with the static
        estimator's bit for bit: same seed ⇒ the same estimate value."""
        log = ChangeLog([Insert(small_collection.row_dict(r)) for r in range(small_collection.size)])
        index = MutableLSHIndex(small_collection.dimension, num_hashes=12, random_state=19)
        log.replay(index)
        estimator = StreamingEstimator(index, random_state=3)

        static_index = LSHIndex(small_collection, num_hashes=12, random_state=19)
        static_estimator = LSHSSEstimator(static_index.primary_table)
        for threshold in (0.5, 0.8):
            streamed = estimator.estimate(threshold, random_state=123, mode="exact")
            batch = static_estimator.estimate(threshold, random_state=123)
            assert streamed.value == batch.value


_RESERVOIR_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 5), st.integers(0, 5)),
        st.tuples(st.just("overwrite"), st.integers(0, 10 ** 6), st.integers(0, 5),
                  st.integers(0, 5)),
        st.tuples(st.just("drop"), st.integers(0, 6)),
    ),
    max_size=60,
)


class TestPairReservoir:
    @settings(max_examples=200, deadline=None)
    @given(_RESERVOIR_OPS)
    def test_drop_vector_is_an_order_preserving_filter(self, ops):
        """In-place eviction keeps the survivors in order (auto-mode SampleL
        redraws by position) and the id multiset exact."""
        reservoir = _PairReservoir(64)
        pairs = []
        for op in ops:
            if op[0] == "append":
                reservoir.append_pair(op[1], op[2])
                pairs.append((op[1], op[2]))
            elif op[0] == "overwrite" and pairs:
                slot = op[1] % len(pairs)
                reservoir.overwrite_slot(slot, op[2], op[3])
                pairs[slot] = (op[2], op[3])
            elif op[0] == "drop":
                kept = [(u, v) for u, v in pairs if op[1] not in (u, v)]
                assert reservoir.drop_vector(op[1]) == len(pairs) - len(kept)
                pairs = kept
            assert reservoir.left == [u for u, _ in pairs]
            assert reservoir.right == [v for _, v in pairs]
            assert reservoir._id_counts == Counter(reservoir.left) + Counter(reservoir.right)
            assert all(count > 0 for count in reservoir._id_counts.values())

class TestStreamingEstimator:
    def test_parameter_validation(self, mutable_index):
        # the LSH-SS parameters are in test_core_lsh_ss's rejection table
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, reservoir_size=0)
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, staleness_budget=0.0)

    def test_invalid_mode_rejected(self, mutable_index):
        estimator = StreamingEstimator(mutable_index, random_state=0)
        with pytest.raises(ValidationError):
            estimator.estimate(0.5, mode="telepathy")

    def test_reservoirs_hold_valid_stratum_pairs(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(index, reservoir_size=64, random_state=0)
        table = index.primary_table
        h_left, h_right = estimator._reservoir_h.arrays()
        l_left, l_right = estimator._reservoir_l.arrays()
        assert h_left.size == 64 and l_left.size == 64
        assert np.all(table.same_bucket_many(h_left, h_right))
        assert not np.any(table.same_bucket_many(l_left, l_right))

    def test_delete_evicts_reservoir_pairs(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        # maximum budget: repairs never trigger, so evictions stay visible
        estimator = StreamingEstimator(
            index, reservoir_size=64, staleness_budget=1.0, random_state=0
        )
        victims = set()
        h_left, h_right = estimator._reservoir_h.arrays()
        victims.add(int(h_left[0]))
        victims.add(int(h_right[-1]))
        for victim in victims:
            index.delete(victim)
        for reservoir in (estimator._reservoir_h, estimator._reservoir_l):
            left, right = reservoir.arrays()
            assert not (set(left.tolist()) | set(right.tolist())) & victims

    def test_staleness_grows_and_refresh_resets(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(
            index, reservoir_size=32, staleness_budget=1.0, random_state=0
        )
        assert estimator.staleness_h == 0.0
        for row in range(10):
            index.insert(small_collection.row(row))  # duplicates: must land in buckets
        assert estimator.staleness_h > 0.0
        assert estimator.staleness_l > 0.0
        estimator.refresh()
        assert estimator.staleness_h == 0.0
        assert estimator.staleness_l == 0.0

    def test_auto_repair_keeps_staleness_within_budget(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(
            index, reservoir_size=32, staleness_budget=0.2, random_state=0
        )
        rng = np.random.default_rng(1)
        live = list(range(small_collection.size))
        for step in range(120):
            if live and rng.random() < 0.4:
                victim = live.pop(int(rng.integers(0, len(live))))
                index.delete(victim)
            else:
                live.append(index.insert(small_collection.row(int(rng.integers(0, 100)))))
            assert estimator.staleness_h <= 0.2
            assert estimator.staleness_l <= 0.2
            deficit_h = 1.0 - len(estimator._reservoir_h) / estimator.reservoir_size
            assert deficit_h <= 0.2

    def test_estimate_details_and_modes(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(index, random_state=0)
        for mode in ("auto", "exact", "reservoir"):
            estimate = estimator.estimate(0.7, random_state=11, mode=mode)
            assert estimate.details["mode"] == mode
            assert estimate.details["n"] == small_collection.size
            assert 0.0 <= estimate.value <= index.total_pairs
        assert estimator.estimate(0.7, random_state=11, mode="exact").details["source_h"] == "exact"
        assert estimator.estimate(0.7, random_state=11, mode="auto").details["source_h"] == "reservoir"

    def test_estimate_on_tiny_index(self):
        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        estimator = StreamingEstimator(index, random_state=0)
        assert estimator.estimate(0.5).value == 0.0  # no pairs at all
        index.insert([1.0, 0.0, 0.0, 0.0])
        assert estimator.estimate(0.5).value == 0.0  # still no pairs
        index.insert([1.0, 0.0, 0.0, 0.0])
        estimate = estimator.estimate(0.5, random_state=1)
        assert estimate.value == pytest.approx(1.0)  # the duplicate pair

    def test_reservoir_mode_estimates_are_reasonable(self, small_collection, small_table):
        """Reservoir-path estimates agree with the static estimator's scale."""
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(index, reservoir_size=1024, random_state=0)
        static = LSHSSEstimator(small_table)
        threshold = 0.5
        streamed = np.mean(
            [estimator.estimate(threshold, random_state=s, mode="reservoir").value for s in range(10)]
        )
        batch = np.mean([static.estimate(threshold, random_state=s).value for s in range(10)])
        assert streamed == pytest.approx(batch, rel=0.5)


class TestReplayPropertyBased:
    """Hypothesis sweep of the replay ≡ fresh-build acceptance property."""

    POOL_SEED = 77

    @staticmethod
    def _pool() -> VectorCollection:
        rng = np.random.default_rng(TestReplayPropertyBased.POOL_SEED)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]  # guarantee at least one colliding pair
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        return VectorCollection.from_dense(dense)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40))
    def test_any_op_sequence_matches_fresh_build(self, ops):
        pool = self._pool()
        index = MutableLSHIndex(pool.dimension, num_hashes=6, random_state=13)
        estimator = StreamingEstimator(index, reservoir_size=16, random_state=5)
        live = []
        for op in ops:
            if live and op % 3 == 0:
                victim = live.pop(op % len(live))
                index.delete(victim)
            else:
                live.append(index.insert(pool.row(op % pool.size)))
        index.check_invariants()
        if index.size == 0:
            assert estimator.estimate(0.5, random_state=0).value == 0.0
            return
        final_collection, _ = index.to_collection()
        fresh = LSHIndex(final_collection, num_hashes=6, random_state=13)
        streamed = estimator.estimate(0.5, random_state=1, mode="exact")
        assert streamed.details["num_collision_pairs"] == fresh.primary_table.num_collision_pairs
        assert (
            streamed.details["num_non_collision_pairs"]
            == fresh.primary_table.num_non_collision_pairs
        )


class TestReviewRegressions:
    def test_mutations_never_raise_when_repair_cannot_sample(self):
        """A degenerate stream (rejection sampling of stratum L exhausts its
        attempts) must degrade the reservoir, not fail the mutation."""
        index = MutableLSHIndex(4, num_hashes=2, random_state=0)
        estimator = StreamingEstimator(
            index, reservoir_size=8, staleness_budget=0.01, random_state=0
        )
        vector = [1.0, 0.5, 0.0, 0.0]
        for _ in range(200):
            index.insert(vector)  # one giant bucket: stratum L stays empty
        outlier = index.insert([0.0, 0.0, 1.0, -1.0])  # tiny stratum L appears
        for _ in range(20):
            index.insert(vector)  # repairs keep triggering; must not raise
        index.delete(outlier)
        index.check_invariants()
        # the L reservoir is degraded, and auto estimates still work
        assert estimator.estimate(0.9, random_state=1).value >= 0.0

    def test_insert_many_with_explicit_zeros_matches_insert(self):
        """Explicit stored zeros must not change signatures between the
        bulk and per-vector paths (replay == fresh build invariant)."""
        data = np.array([1.0, 0.0, 2.0])          # explicit zero at column 2
        indices = np.array([0, 2, 3])
        matrix = sparse.csr_matrix((data, indices, [0, 3]), shape=(1, 5))
        bulk = MutableLSHIndex(5, num_hashes=6, family="cosine", random_state=9)
        bulk.insert_many(matrix)
        incremental = MutableLSHIndex(5, num_hashes=6, family="cosine", random_state=9)
        incremental.insert(matrix)
        assert (
            bulk.primary_table.signature_key(0)
            == incremental.primary_table.signature_key(0)
        )

    def test_close_detaches_estimator(self, small_collection):
        index = MutableLSHIndex.from_collection(small_collection, num_hashes=12, random_state=19)
        estimator = StreamingEstimator(
            index, reservoir_size=16, staleness_budget=1.0, random_state=0
        )
        estimator.close()
        index.insert(small_collection.row(0))
        assert estimator.staleness_h == 0.0  # no longer notified
        index.unregister_observer(estimator)  # double-unregister is a no-op

    def test_insert_never_mutates_or_aliases_caller_matrix(self):
        data = np.array([1.0, 0.0, 2.0])  # explicit stored zero
        caller_row = sparse.csr_matrix((data, np.array([0, 2, 3]), [0, 3]), shape=(1, 5))
        index = MutableLSHIndex(5, num_hashes=4, random_state=0)
        vector_id = index.insert(caller_row)
        assert caller_row.nnz == 3  # caller's explicit zero untouched
        assert index._rows[vector_id] is not caller_row
        caller_row[0, 0] = 99.0  # later caller-side write must not leak in
        assert index.cosine_pairs([vector_id], [vector_id])[0] == pytest.approx(1.0)
        assert index._rows[vector_id][0, 0] == 1.0

    def test_explicit_reservoir_mode_refuses_degraded_reservoir(self):
        """mode='reservoir' must honour its bucket-free contract: raise on an
        unusable reservoir rather than silently sampling buckets."""
        index = MutableLSHIndex(4, num_hashes=2, random_state=0)
        estimator = StreamingEstimator(
            index, reservoir_size=8, staleness_budget=0.01, random_state=0
        )
        for _ in range(50):
            index.insert([1.0, 0.5, 0.0, 0.0])
        index.insert([0.0, 0.0, 1.0, -1.0])  # stratum L non-empty
        estimator._reservoir_l.clear()       # force the degraded state a
        estimator._reservoir_l.degraded = True  # failed refill leaves behind
        with pytest.raises(InsufficientSampleError):
            estimator.estimate(0.9, random_state=1, mode="reservoir")
        # empty strata are fine: no reservoir is *needed*
        tiny = MutableLSHIndex(4, num_hashes=4, random_state=0)
        tiny_estimator = StreamingEstimator(tiny, random_state=0)
        assert tiny_estimator.estimate(0.5, mode="reservoir").value == 0.0


class TestRowStore:
    """Unit tests for the pooled row store behind MutableLSHIndex."""

    @staticmethod
    def _store_with(rows):
        from repro.streaming.rowstore import RowStore

        store = RowStore(rows.shape[1])
        matrix = sparse.csr_matrix(np.asarray(rows, dtype=np.float64))
        matrix.sort_indices()
        store.add_many(range(matrix.shape[0]), matrix)
        return store

    def test_gather_round_trips_rows(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]])
        store = self._store_with(dense)
        gathered = store.gather_raw([2, 0, 1])
        np.testing.assert_allclose(gathered.toarray(), dense[[2, 0, 1]])

    def test_gather_normalized_matches_manual(self):
        dense = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        store = self._store_with(dense)
        normalized = store.gather_normalized([0, 1]).toarray()
        np.testing.assert_allclose(normalized[0], [0.6, 0.8, 0.0])
        np.testing.assert_allclose(normalized[1], [0.0, 0.0, 1.0])

    def test_zero_row_keeps_unit_scale(self):
        dense = np.array([[0.0, 0.0], [1.0, 0.0]])
        store = self._store_with(dense)
        np.testing.assert_array_equal(store.gather_normalized([0]).toarray(), [[0.0, 0.0]])
        np.testing.assert_array_equal(store.gather_normalized([0, 1]).toarray(), dense)

    def test_missing_and_duplicate_ids_rejected(self):
        from repro.streaming.rowstore import RowStore

        store = self._store_with(np.eye(3))
        with pytest.raises(ValidationError):
            store.gather_raw([5])
        with pytest.raises(ValidationError):
            store.add(0, sparse.csr_matrix(np.array([[1.0, 0.0, 0.0]])))
        with pytest.raises(ValidationError):
            store.remove(42)
        with pytest.raises(ValidationError):
            RowStore(0)

    @staticmethod
    def _assert_matches_static(cosine_of, gather_normalized, reference, rng):
        """Served rows and cosines equal the static path's over the live raw rows."""
        ids = np.asarray(sorted(reference))
        collection = VectorCollection(
            sparse.csr_matrix(np.array([reference[i] for i in ids])), copy=False
        )
        left = rng.integers(0, ids.size, size=200)
        right = rng.integers(0, ids.size, size=200)
        if gather_normalized is not None:
            np.testing.assert_array_equal(
                gather_normalized(ids[left]).toarray(),
                collection.normalized_matrix[left].toarray(),
            )
        np.testing.assert_array_equal(
            cosine_of(ids[left], ids[right]), cosine_pairs(collection, left, right)
        )

    @staticmethod
    def _count_compactions(monkeypatch):
        from repro.streaming.rowstore import RowStore

        compactions = []
        compact = RowStore._compact

        def counted(store):
            compactions.append(store)
            compact(store)

        monkeypatch.setattr(RowStore, "_compact", counted)
        return compactions

    def test_slot_reuse_and_compaction_under_churn(self, monkeypatch):
        from repro.streaming.rowstore import RowStore
        from repro.vectors.similarity import pairwise_cosine

        compactions = self._count_compactions(monkeypatch)
        rng = np.random.default_rng(0)
        store = RowStore(16)

        def cosine_of(left, right):
            return pairwise_cosine(store.gather_normalized(left), store.gather_normalized(right))

        reference = {}
        next_id = 0
        checked_after_compaction = 0
        for event in range(3000):
            compacted = len(compactions)
            if reference and rng.random() < 0.6:
                victim = int(rng.choice(list(reference)))
                store.remove(victim)
                del reference[victim]
            else:
                # a batch append keeps a normalised view of the pool, a
                # one-row append drops it: churn through both
                batch = 1 if rng.random() < 0.5 else 3
                rows = (rng.random((batch, 16)) < 0.3) * rng.random((batch, 16))
                ids = list(range(next_id, next_id + batch))
                if batch == 1:
                    store.add(next_id, sparse.csr_matrix(rows))
                else:
                    store.add_many(ids, sparse.csr_matrix(rows))
                reference.update(zip(ids, rows))
                next_id += batch
            store.check_invariants()
            if len(compactions) > compacted or event % 500 == 499:
                checked_after_compaction += len(compactions) > compacted
                self._assert_matches_static(cosine_of, store.gather_normalized, reference, rng)
        assert checked_after_compaction >= 1
        assert len(store) == len(reference)
        ids = sorted(reference)
        gathered = store.gather_raw(ids).toarray()
        np.testing.assert_array_equal(gathered, np.array([reference[i] for i in ids]))

    def test_facade_cosines_match_static_under_churn(self, monkeypatch):
        """The same check through an in-process S = 3 facade, whose shards
        compact often (a low compaction floor)."""
        from repro.shard import ShardedMutableIndex
        from repro.streaming import rowstore

        monkeypatch.setattr(rowstore, "_COMPACTION_FLOOR", 64)
        compactions = self._count_compactions(monkeypatch)
        rng = np.random.default_rng(1)
        index = ShardedMutableIndex(16, num_shards=3, num_hashes=6, random_state=0)
        reference = {}
        for event in range(1500):
            if reference and rng.random() < 0.6:
                victim = int(rng.choice(list(reference)))
                index.delete(victim)
                del reference[victim]
            else:
                rows = (rng.random((3, 16)) < 0.3) * rng.random((3, 16))
                reference.update(zip(index.insert_many(rows).tolist(), rows))
            if event % 300 == 299:
                self._assert_matches_static(index.cosine_pairs, None, reference, rng)
        index.check_invariants()
        assert len({id(store) for store in compactions}) == 3

    def test_refuses_rows_outside_the_dimension(self):
        """A row wider than the store, or with a column outside
        [0, dimension), is refused before any mutation."""
        from repro.streaming.rowstore import RowStore

        store = self._store_with(np.eye(4))
        wide = sparse.csr_matrix(([1.0], [9], [0, 1]), shape=(1, 10))
        out_of_range = sparse.csr_matrix(([1.0, 2.0], [1, 9], [0, 2]), shape=(1, 4))
        negative = sparse.csr_matrix(([1.0], [-1], [0, 1]), shape=(1, 4))
        for matrix in (wide, out_of_range, negative):
            with pytest.raises(ValidationError):
                store.add_many([7], matrix)
            with pytest.raises(ValidationError):
                store.add(7, matrix)
            with pytest.raises(ValidationError):
                RowStore.from_state({"dimension": 4, "ids": [0], "matrix": matrix})
        store.check_invariants()
        assert store.ids().tolist() == [0, 1, 2, 3]
        np.testing.assert_array_equal(store.gather_raw([0, 1, 2, 3]).toarray(), np.eye(4))

    def test_state_round_trip(self):
        store = self._store_with(np.array([[1.0, 0.0], [0.0, 2.5]]))
        store.remove(0)
        from repro.streaming.rowstore import RowStore

        revived = RowStore.from_state(store.state())
        revived.check_invariants()
        assert list(revived.ids()) == [1]
        np.testing.assert_allclose(revived.gather_raw([1]).toarray(), [[0.0, 2.5]])

    def test_add_many_length_mismatch_rejected(self):
        from repro.streaming.rowstore import RowStore

        store = RowStore(2)
        with pytest.raises(ValidationError):
            store.add_many([0, 1, 2], sparse.csr_matrix(np.eye(2)))


class TestExternalIdsAndSnapshot:
    def test_insert_with_explicit_ids(self, tiny_collection):
        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        assert index.insert(tiny_collection.row(0), vector_id=10) == 10
        assert index.insert(tiny_collection.row(1)) == 11  # next id follows
        with pytest.raises(ValidationError):
            index.insert(tiny_collection.row(2), vector_id=10)
        with pytest.raises(ValidationError):
            index.insert(tiny_collection.row(2), vector_id=-1)
        ids = index.insert_many(
            tiny_collection.matrix[2:4], vector_ids=[20, 30]
        )
        assert ids.tolist() == [20, 30]
        with pytest.raises(ValidationError):
            index.insert_many(tiny_collection.matrix[2:4], vector_ids=[40, 40])

    def test_failed_batch_leaves_index_untouched(self, tiny_collection):
        """A rejected insert_many batch must not corrupt the index (review
        regression: ids beyond the id space used to half-apply)."""
        from repro.streaming.rowstore import _MAX_ID

        index = MutableLSHIndex(4, num_hashes=4, random_state=0)
        index.insert(tiny_collection.row(0))
        with pytest.raises(ValidationError):
            index.insert_many(tiny_collection.matrix[1:3], vector_ids=[5, _MAX_ID])
        with pytest.raises(ValidationError):
            index.insert(tiny_collection.row(1), vector_id=_MAX_ID + 7)
        index.check_invariants()
        assert index.size == 1
        assert index.insert(tiny_collection.row(1)) == 1  # next id not poisoned

    def test_snapshot_preserves_estimates(self, small_collection):
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        )
        rng = np.random.default_rng(1)
        live = list(range(small_collection.size))
        for _ in range(80):
            if rng.random() < 0.5 and len(live) > 2:
                index.delete(live.pop(int(rng.integers(0, len(live)))))
            else:
                live.append(index.insert(small_collection.row(int(rng.integers(0, 100)))))
        revived = MutableLSHIndex.from_state(index.to_state())
        revived.check_invariants()
        original = StreamingEstimator(index, random_state=0).estimate(
            0.7, random_state=9, mode="exact"
        )
        restored = StreamingEstimator(revived, random_state=0).estimate(
            0.7, random_state=9, mode="exact"
        )
        assert restored.value == original.value


class TestEstimatorPersistence:
    """Reservoir pairs + staleness counters survive snapshot/restore."""

    def test_staleness_budget_above_one_rejected(self, mutable_index):
        # a budget > 1 could never be exceeded (staleness is a capped
        # fraction), silently disabling repair while claiming a bound
        with pytest.raises(ValidationError):
            StreamingEstimator(mutable_index, staleness_budget=1.5)
        StreamingEstimator(mutable_index, staleness_budget=1.0).close()

    def test_state_round_trip_preserves_reservoirs(self, small_collection):
        import pickle

        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        )
        estimator = StreamingEstimator(index, reservoir_size=64, random_state=0)
        for row in range(15):
            index.insert(small_collection.row(row))
        index.delete(4)
        state = pickle.loads(pickle.dumps(index.to_state()))
        revived = MutableLSHIndex.from_state(state)
        (restored,) = revived.estimators
        assert isinstance(restored, StreamingEstimator)
        for stratum in ("reservoir_h", "reservoir_l"):
            assert restored.to_state()[stratum] == estimator.to_state()[stratum]
        assert restored.staleness_h == estimator.staleness_h
        assert restored.staleness_l == estimator.staleness_l
        for mode in ("reservoir", "exact", "auto"):
            ours = restored.estimate(0.7, random_state=42, mode=mode)
            theirs = estimator.estimate(0.7, random_state=42, mode=mode)
            assert ours.value == theirs.value

    def test_restored_estimator_replays_repairs_bit_identically(self, small_collection):
        """The maintenance generator resumes mid-stream: mutations applied
        after a restore trigger the same partial resamples the original
        estimator performs."""
        index = MutableLSHIndex.from_collection(
            small_collection, num_hashes=12, random_state=19
        )
        estimator = StreamingEstimator(
            index, reservoir_size=32, staleness_budget=0.1, random_state=7
        )
        revived = MutableLSHIndex.from_state(index.to_state())
        (restored,) = revived.estimators
        rng = np.random.default_rng(3)
        for _ in range(60):  # heavy churn: repairs must fire on both sides
            row = small_collection.row(int(rng.integers(0, small_collection.size)))
            index.insert(row)
            revived.insert(row)
        ours = restored.estimate(0.7, random_state=1, mode="auto")
        theirs = estimator.estimate(0.7, random_state=1, mode="auto")
        assert ours.value == theirs.value
        for stratum in ("reservoir_h", "reservoir_l"):
            assert restored.to_state()[stratum] == estimator.to_state()[stratum]

    def test_bad_estimator_state_rejected(self, mutable_index):
        with pytest.raises(ValidationError):
            StreamingEstimator.from_state(mutable_index, {"format": 99})

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=40))
    def test_snapshot_restore_estimate_matches_no_snapshot(self, ops):
        """Acceptance property (a): for arbitrary event sequences, a
        snapshot → restore → estimate in reservoir mode equals the
        estimate the never-snapshotted estimator serves."""
        rng = np.random.default_rng(55)
        dense = (rng.random((30, 8)) < 0.4) * rng.random((30, 8))
        dense[0] = dense[1]
        dense[dense.sum(axis=1) == 0.0, 0] = 1.0
        pool = VectorCollection.from_dense(dense)
        index = MutableLSHIndex(pool.dimension, num_hashes=6, random_state=13)
        estimator = StreamingEstimator(index, reservoir_size=16, random_state=5)
        live = []
        for op in ops:
            if live and op % 3 == 0:
                index.delete(live.pop(op % len(live)))
            else:
                live.append(index.insert(pool.row(op % pool.size)))
        revived = MutableLSHIndex.from_state(index.to_state())
        (restored,) = revived.estimators

        def outcome(est):
            try:
                return est.estimate(0.5, random_state=11, mode="reservoir").value
            except InsufficientSampleError:
                return "insufficient"

        assert outcome(restored) == outcome(estimator)
