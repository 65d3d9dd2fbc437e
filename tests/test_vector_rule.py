"""One rule for a valid vector: every entry point stores the same rows for
valid input and refuses the same malformed input.

``VectorCollection`` (and ``from_dicts``), the change-event decoder and
every engine shape's insert canonicalise through
:func:`repro.vectors.coerce_mappings` / :func:`repro.vectors.coerce_matrix`.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.engine import EngineConfig, JoinEstimationEngine
from repro.errors import ValidationError
from repro.streaming import Insert
from repro.streaming.events import event_from_dict
from repro.vectors import VectorCollection, coerce_row


def _coo_coerce_matrix(matrix) -> sparse.csr_matrix:
    """How ``VectorCollection`` canonicalised valid input before the one
    rule: CSR (or dense → CSR), float64, ``eliminate_zeros``,
    ``sort_indices`` — kept here as the oracle for its output."""
    if sparse.issparse(matrix):
        csr = matrix.tocsr(copy=True)
    else:
        csr = sparse.csr_matrix(np.asarray(matrix, dtype=np.float64))
    csr = csr.astype(np.float64)
    csr.eliminate_zeros()
    csr.sort_indices()
    return csr


def _coo_from_dicts(vectors, dimension: int) -> sparse.csr_matrix:
    """How ``from_dicts`` built valid rows before the one rule: one COO
    matrix from ``int()`` keys and ``float()`` values, then the
    collection's canonicalisation — the oracle for bulk mapping input."""
    rows, cols, data = [], [], []
    for row_id, mapping in enumerate(vectors):
        for index, value in mapping.items():
            rows.append(row_id)
            cols.append(int(index))
            data.append(float(value))
    coo = sparse.csr_matrix(
        (data, (rows, cols)), shape=(len(vectors), dimension), dtype=np.float64
    )
    return _coo_coerce_matrix(coo)


def _assert_same_csr(got: sparse.csr_matrix, want: sparse.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


_VALUES = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
)
_KEY_SPELLINGS = [int, str, np.int32, np.int64, np.uint16]


@st.composite
def _valid_rows(draw):
    """``(rows, dimension)``: 1–5 valid rows as ``(columns, values, key
    spelling)`` with unsorted, possibly empty columns."""
    dimension = draw(st.integers(min_value=1, max_value=24))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        columns = draw(st.lists(
            st.integers(min_value=0, max_value=dimension - 1), unique=True, max_size=dimension
        ))
        values = [draw(_VALUES) for _ in columns]
        rows.append((columns, values, draw(st.sampled_from(_KEY_SPELLINGS))))
    return rows, dimension


class TestValidInputStoredAsBefore:
    @settings(max_examples=200, deadline=None)
    @given(_valid_rows())
    def test_mappings(self, case):
        """``from_dicts`` (bulk and inferred dimension), ``coerce_row`` and the
        event decoder store what the COO construction stored."""
        rows, dimension = case
        dicts = [{spell(c): v for c, v in zip(cols, vals)} for cols, vals, spell in rows]
        expected = _coo_from_dicts(dicts, dimension)
        _assert_same_csr(VectorCollection.from_dicts(dicts, dimension=dimension).matrix, expected)
        inferred = max((c for cols, _, _ in rows for c in cols), default=0) + 1
        _assert_same_csr(
            VectorCollection.from_dicts(dicts).matrix, _coo_from_dicts(dicts, inferred)
        )
        for i, mapping in enumerate(dicts):
            _assert_same_csr(coerce_row(mapping, dimension), expected[i])
            wire = {"op": "insert", "vector": {str(k): v for k, v in mapping.items()}}
            decoded = event_from_dict(wire)
            assert all(type(k) is int and type(v) is float for k, v in decoded.vector.items())
            _assert_same_csr(coerce_row(decoded.vector, dimension), expected[i])

    @settings(max_examples=200, deadline=None)
    @given(_valid_rows(), st.booleans())
    def test_matrices(self, case, as_sparse):
        """``VectorCollection`` over a sparse (unsorted, explicit zeros) or
        dense matrix, ``coerce_row`` over its rows and the dense event
        decoder store what the collection's old canonicalisation stored."""
        rows, dimension = case
        dense = np.zeros((len(rows), dimension))
        for i, (cols, vals, _) in enumerate(rows):
            dense[i, cols] = vals
        if as_sparse:
            indptr = np.cumsum([0] + [len(cols) for cols, _, _ in rows])
            matrix = sparse.csr_matrix(
                (np.asarray([v for _, vals, _ in rows for v in vals], dtype=np.float64),
                 np.asarray([c for cols, _, _ in rows for c in cols], dtype=np.int32),
                 indptr),
                shape=(len(rows), dimension),
            )
        else:
            matrix = dense
        expected = _coo_coerce_matrix(matrix)
        _assert_same_csr(VectorCollection(matrix).matrix, expected)
        for i in range(len(rows)):
            row = matrix[i : i + 1] if as_sparse else matrix[i]
            _assert_same_csr(coerce_row(row, dimension), expected[i])
            decoded = event_from_dict({"op": "insert", "dense": dense[i].tolist()})
            _assert_same_csr(coerce_row(decoded.vector, dimension), expected[i])


# ----------------------------------------------------------------------
# one refusal table, every entry point and engine shape
# ----------------------------------------------------------------------
_MALFORMED = {
    "padded-repeat-key": {"1": 1.0, "01": 2.0},
    "fractional-key": {1.5: 1.0},
    "word-key": {"a": 1.0},
    "complex-sparse": sparse.csr_matrix(np.array([[1.0, 0.0, 1j, 0.0]])),
}
_VALID_ROW = {0: 1.0, 3: 0.5}


def _collection(vector):
    if isinstance(vector, dict):
        return VectorCollection.from_dicts([_VALID_ROW, vector], dimension=4)
    return VectorCollection(sparse.vstack([sparse.csr_matrix((1, 4)), vector]))


def _through_engine(backend: str, source) -> None:
    """Refuse ``source()`` on an engine of shape ``backend`` holding one row."""
    options = {"num_shards": 2} if backend == "sharded" else {}
    config = EngineConfig(backend=backend, num_hashes=4, dimension=4, seed=0, options=options)
    with JoinEstimationEngine(config) as engine:
        engine.ingest(Insert(_VALID_ROW))
        with pytest.raises(ValidationError):
            engine.ingest(source())
        engine.flush()
        assert engine.backend.size == 1  # nothing of the refused row is stored


_ENTRY_POINTS = {
    "collection": lambda vector: _collection(vector),
    "from-dicts-one-row": lambda vector: VectorCollection.from_dicts([vector], dimension=4),
    "event-from-dict": lambda vector: event_from_dict(
        {"op": "insert", "vector": {str(k): v for k, v in vector.items()}}
    ),
    "coerce-row": lambda vector: coerce_row(vector, 4),
    "static-collection": lambda vector: _through_engine("static", lambda: _collection(vector)),
    "static-event": lambda vector: _through_engine("static", lambda: Insert(vector)),
    "streaming-event": lambda vector: _through_engine("streaming", lambda: Insert(vector)),
    "sharded-event": lambda vector: _through_engine("sharded", lambda: Insert(vector)),
}
#: a sparse matrix is no mapping: it reaches no mapping-only entry point
_MAPPING_ONLY = {"from-dicts-one-row", "event-from-dict"}


@pytest.mark.parametrize(
    "entry, name",
    [
        (entry, name)
        for entry in _ENTRY_POINTS
        for name, vector in _MALFORMED.items()
        if isinstance(vector, dict) or entry not in _MAPPING_ONLY
    ],
)
def test_malformed_vector_refused_everywhere(entry, name):
    """A repeated index, a fractional or non-numeric key, or a complex value
    is a ValidationError on every entry point — never summed, truncated,
    collapsed or cast away with a ComplexWarning — and stores nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if entry.startswith(("static", "streaming", "sharded")):
            _ENTRY_POINTS[entry](_MALFORMED[name])  # asserts the refusal itself
        else:
            with pytest.raises(ValidationError):
                _ENTRY_POINTS[entry](_MALFORMED[name])
