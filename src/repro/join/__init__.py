"""Exact similarity-join substrate (ground truth and join processing).

Size-estimation experiments need the true join size ``J(τ)`` for every
threshold of interest.  This subpackage provides:

* :mod:`~repro.join.exact` — exact cosine join sizes via block-wise
  sparse matrix products (self-joins and general joins).
* :mod:`~repro.join.histogram` — a one-pass similarity histogram from
  which ``J(τ)`` can be read off for an entire threshold grid.
* :mod:`~repro.join.allpairs` — a Bayardo-style All-Pairs join that
  returns the actual result pairs above a threshold (the join-processing
  algorithm whose optimisation motivates size estimation).

Every join is a cosine join: the one similarity measure of the library.
"""

from repro.join.exact import exact_join_size, exact_join_sizes, exact_general_join_size
from repro.join.histogram import SimilarityHistogram
from repro.join.allpairs import all_pairs_join

__all__ = [
    "exact_join_size",
    "exact_join_sizes",
    "exact_general_join_size",
    "SimilarityHistogram",
    "all_pairs_join",
]
