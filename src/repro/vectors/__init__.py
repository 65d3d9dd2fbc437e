"""Sparse-vector substrate: collections, similarities, TF-IDF, embeddings.

The paper's VSJ problem is defined over a collection of real-valued
vectors with cosine similarity.  This subpackage provides the vector
representation used throughout the library:

* :class:`~repro.vectors.collection.VectorCollection` — an immutable,
  CSR-backed collection of sparse vectors with cached norms.
* :mod:`~repro.vectors.similarity` — cosine / Jaccard / overlap
  similarities, both pairwise and vectorised over index pairs.
* :mod:`~repro.vectors.tfidf` — a small TF-IDF pipeline used by the
  synthetic NYT-like and PUBMED-like corpora.
* :mod:`~repro.vectors.embedding` — the vector → multiset embedding the
  paper discusses for adapting set-similarity-join techniques (§1).
"""

from repro.vectors.collection import VectorCollection
from repro.vectors.similarity import (
    cosine_pairs,
    cosine_similarity,
    cosine_similarity_matrix,
    jaccard_pairs,
    jaccard_similarity,
    overlap_similarity,
)
from repro.vectors.tfidf import TfidfVectorizer, Tokenizer, Vocabulary
from repro.vectors.embedding import vector_to_multiset, collection_to_multisets

__all__ = [
    "VectorCollection",
    "cosine_similarity",
    "cosine_similarity_matrix",
    "cosine_pairs",
    "jaccard_similarity",
    "jaccard_pairs",
    "overlap_similarity",
    "TfidfVectorizer",
    "Tokenizer",
    "Vocabulary",
    "vector_to_multiset",
    "collection_to_multisets",
]
