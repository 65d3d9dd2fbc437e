"""Sparse-vector substrate: collections, cosine similarity, TF-IDF.

The paper's VSJ problem is defined over a collection of real-valued
vectors with cosine similarity.  This subpackage provides the vector
representation used throughout the library:

* :class:`~repro.vectors.collection.VectorCollection` — an immutable,
  CSR-backed collection of sparse vectors with cached norms.
* :func:`~repro.vectors.collection.coerce_mappings` /
  :func:`~repro.vectors.collection.coerce_matrix` — the one rule for a
  valid vector (integral, in-range, unrepeated indices; real, finite
  values), through which collections, change events and every mutable
  shape's inserts become stored CSR rows (:func:`coerce_row` is their
  one-row case).
* :mod:`~repro.vectors.similarity` — cosine similarity, both pairwise
  and vectorised over index pairs, and the cosine ↔ SimHash collision
  transform the analytical estimators use.
* :mod:`~repro.vectors.tfidf` — a small TF-IDF pipeline used by the
  synthetic NYT-like and PUBMED-like corpora.
"""

from repro.vectors.collection import (
    VectorCollection,
    coerce_mappings,
    coerce_matrix,
    coerce_row,
)
from repro.vectors.similarity import (
    cosine_pairs,
    cosine_similarity,
    cosine_similarity_matrix,
)
from repro.vectors.tfidf import TfidfVectorizer, Tokenizer, Vocabulary

__all__ = [
    "VectorCollection",
    "coerce_mappings",
    "coerce_matrix",
    "coerce_row",
    "cosine_similarity",
    "cosine_similarity_matrix",
    "cosine_pairs",
    "TfidfVectorizer",
    "Tokenizer",
    "Vocabulary",
]
