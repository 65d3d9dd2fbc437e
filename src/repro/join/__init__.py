"""Exact cosine similarity joins: the ground truth every estimate is judged by.

Size-estimation experiments need the true join size ``J(τ)`` for every
threshold of interest.  One block loop in :mod:`~repro.join.exact` runs
the sparse product of the normalised rows and yields every pair with a
non-zero similarity; everything here reads from it:

* :mod:`~repro.join.exact` — exact join sizes for a self-join or a
  general join of two collections;
* :mod:`~repro.join.histogram` — a similarity histogram from which
  ``J(τ)`` can be read off for a whole threshold grid;
* :mod:`~repro.join.allpairs` — the result pairs above a threshold, for
  a caller that runs the join whose size was estimated.
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
