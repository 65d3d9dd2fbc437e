"""Shared fixtures for the test suite.

Fixtures are deliberately small (hundreds of vectors) so the whole suite
runs in a couple of minutes; the benchmark suite owns the larger,
paper-scale collections.  Expensive fixtures are session-scoped and
deterministic (fixed seeds) so tests can assert on stable quantities.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# the churn-log fixture delegates to benchmarks._helpers so tests and
# benchmark gates replay identical streams; keep that import working when
# pytest is invoked from outside the repo root
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.datasets import make_dblp_like, make_nyt_like
from repro.join.histogram import SimilarityHistogram
from repro.lsh import LSHFamily, LSHIndex, LSHTable, SignRandomProjectionFamily
from repro.vectors import VectorCollection


# @pytest.mark.timeout(seconds) → hard SIGALRM deadline, so the
# multi-process cluster tests fail fast on a deadlocked worker instead
# of hanging the job; one implementation shared with benchmarks/conftest
from benchmarks._helpers import hard_timeout_runtest_call as pytest_runtest_call  # noqa: E402,F401

# ----------------------------------------------------------------------
# runtime lockdep (REPRO_LOCKDEP=1): swap tracked lock wrappers into the
# serving path for the whole suite, dump the observed lock-order graph at
# session end, and fail the run on any acquire that broke LOCK_ORDER.
# Installed at import time — ahead of every fixture — because only
# primitives constructed *after* install() are tracked.
# ----------------------------------------------------------------------
import os  # noqa: E402

_LOCKDEP_STATE = None
if os.environ.get("REPRO_LOCKDEP") == "1":
    from repro.analysis import lockdep as _lockdep

    _LOCKDEP_STATE = _lockdep.install()


def pytest_sessionfinish(session, exitstatus):
    import json

    if _LOCKDEP_STATE is None:
        return
    graph = _LOCKDEP_STATE.graph()
    graph_path = os.environ.get("REPRO_LOCKDEP_GRAPH", "lockdep_graph.json")
    with open(graph_path, "w", encoding="utf-8") as handle:
        json.dump(graph, handle, indent=2, sort_keys=True)
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    lines = [
        f"lockdep: {len(graph['locks'])} lock(s), {graph['acquires']} "
        f"acquire(s), {len(graph['edges'])} ordered edge(s) -> {graph_path}"
    ]
    lines += [
        f"lockdep VIOLATION: {v['thread']} acquiring {v['lock']} while holding "
        f"{v['held']}: {v['lock']} {v['problem']}"
        for v in graph["violations"]
    ]
    for line in lines:
        if reporter is not None:
            reporter.write_line(line)
        else:
            print(line)
    if graph["violations"]:
        # the acquiring thread got a LockOrderError, but inside a serve
        # handler that becomes an error reply a test may not check —
        # fail the session on the record instead
        session.exitstatus = 1


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator for individual tests."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def churn_log_factory():
    """Shared generator of insert/delete churn logs (streaming/shard tests).

    Returns ``make(collection, operations, *, seed=42, checkpoint=False)``,
    delegating to :func:`benchmarks._helpers.churn_log` so the test
    properties and the benchmark gates replay the *same* canonical event
    stream (~30% deletes of a random live id, the rest inserts of random
    corpus rows, ids assigned sequentially).
    """
    from benchmarks._helpers import churn_log
    from repro.streaming import Checkpoint

    def make(collection, operations, *, seed=42, checkpoint=False):
        log = churn_log(collection, operations, seed=seed)
        if checkpoint:
            log.append(Checkpoint("end"))
        return log

    return make


@pytest.fixture
def tiny_collection() -> VectorCollection:
    """Six hand-written 4-dimensional vectors with known similarities."""
    return VectorCollection.from_dense(
        [
            [1.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],  # exact duplicate of row 0
            [1.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


@pytest.fixture
def binary_collection() -> VectorCollection:
    """A small binary collection built from token sets."""
    token_sets = [
        {0, 1, 2, 3},
        {0, 1, 2, 3},        # duplicate of record 0
        {0, 1, 2, 4},        # one-token difference
        {5, 6, 7},
        {5, 6, 7, 8, 9},
        {10, 11},
    ]
    return VectorCollection.from_token_sets(token_sets, dimension=12)


class ConstantFamily(LSHFamily):
    """A family for some other measure than cosine: one bucket for everything."""

    def _initialise(self, dimension):
        pass

    def _hash_matrix(self, matrix):
        return np.zeros((matrix.shape[0], self.num_hashes), dtype=np.int64)


@pytest.fixture
def foreign_family() -> LSHFamily:
    """A well-formed non-SimHash family (k = 4), which must be refused."""
    return ConstantFamily(4, random_state=0)


@pytest.fixture(scope="session")
def small_corpus():
    """A DBLP-like synthetic corpus of 400 vectors (session-scoped)."""
    return make_dblp_like(num_vectors=400, random_state=3)


@pytest.fixture(scope="session")
def small_collection(small_corpus) -> VectorCollection:
    return small_corpus.collection


@pytest.fixture(scope="session")
def small_tfidf_corpus():
    """An NYT-like synthetic TF-IDF corpus of 300 vectors (session-scoped)."""
    return make_nyt_like(num_vectors=300, random_state=5)


@pytest.fixture(scope="session")
def small_histogram(small_collection) -> SimilarityHistogram:
    """Exact similarity histogram of the small DBLP-like collection."""
    return SimilarityHistogram(small_collection, num_bins=1000)


@pytest.fixture(scope="session")
def small_table(small_collection) -> LSHTable:
    """A k=12 cosine LSH table over the small collection."""
    family = SignRandomProjectionFamily(12, random_state=17)
    return LSHTable(family, small_collection)


@pytest.fixture(scope="session")
def small_index(small_collection) -> LSHIndex:
    """A 3-table, k=12 LSH index over the small collection."""
    return LSHIndex(small_collection, num_hashes=12, num_tables=3, random_state=19)
