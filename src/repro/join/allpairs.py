"""The result pairs of a cosine self-join, for a caller that needs them.

Similarity-join *processing* algorithms (Bayardo et al., WWW 2007;
Chaudhuri et al., ICDE 2006; Arasu et al., VLDB 2006) are the operators
whose cost a query optimiser must weigh against alternatives — which is
why the paper argues join-size estimation is needed in the first place.
:func:`all_pairs_join` runs a real join whose output size the estimators
predicted.  It reads every pair from the exact oracle's block-wise sparse
product (:mod:`repro.join.exact`) and keeps those reaching the threshold,
so its result size is exactly ``J(τ)``.  All-Pairs' inverted index earns
its complexity only through pruning bounds; at this library's collection
sizes one sparse product is faster.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.join.exact import SIMILARITY_TOLERANCE, _block_pairs
from repro.vectors.collection import VectorCollection


def all_pairs_join(
    collection: VectorCollection,
    threshold: float,
    *,
    max_pairs: Optional[int] = None,
) -> List[Tuple[int, int, float]]:
    """Return every pair ``(u, v, sim)`` with ``sim ≥ threshold`` and ``u < v``.

    Parameters
    ----------
    collection:
        The vectors to self-join.
    threshold:
        Cosine similarity threshold ``τ`` in ``(0, 1]``.
    max_pairs:
        Optional safety cap on the number of result pairs; exceeded caps
        raise ``ValidationError`` (size estimation exists precisely to
        warn the optimiser before this happens).

    The pairs are sorted by ``(u, v)``.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValidationError(f"threshold must be in (0, 1], got {threshold}")
    blocks = []
    found = 0
    for left, right, similarity in _block_pairs(collection):
        keep = similarity >= threshold - SIMILARITY_TOLERANCE
        found += int(np.count_nonzero(keep))
        if max_pairs is not None and found > max_pairs:
            raise ValidationError(
                f"all_pairs_join produced more than max_pairs={max_pairs} results"
            )
        blocks.append((left[keep], right[keep], similarity[keep]))
    left, right, similarity = (np.concatenate(part) for part in zip(*blocks))
    order = np.lexsort((right, left))
    return list(zip(left[order].tolist(), right[order].tolist(), similarity[order].tolist()))


__all__ = ["all_pairs_join"]
