"""Uniform pair sampling and cross sampling over one collection (a self-join).

Both samplers return ``(left, right)`` index arrays; similarity
evaluation is left to the caller, via
:func:`repro.vectors.similarity.cosine_pairs`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Tuple

import numpy as np

from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh.table import sample_uniform_pairs
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection


class UniformPairSampler:
    """Sample pairs uniformly at random, with replacement — RS(pop).

    Over a collection of size ``n`` the population is all ``M = C(n, 2)``
    unordered distinct pairs.
    """

    def __init__(self, collection: VectorCollection):
        self.collection = collection

    @property
    def population_size(self) -> int:
        """Number of candidate pairs ``M``."""
        return self.collection.total_pairs

    def sample(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw ``sample_size`` pairs; returns ``(left, right)`` index arrays."""
        if sample_size < 0:
            raise ValidationError(f"sample_size must be >= 0, got {sample_size}")
        rng = ensure_rng(random_state)
        if sample_size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        return sample_uniform_pairs(self.collection.size, sample_size, rng)


class CrossPairSampler:
    """Cross sampling — RS(cross), after Haas et al. [10].

    Instead of sampling pairs directly, cross sampling draws ``r`` vectors
    and evaluates *all* ``C(r, 2)`` pairs among them.  Given a pair
    budget ``m``, the paper uses ``r = ⌈√m⌉``.
    """

    def __init__(self, collection: VectorCollection):
        self.collection = collection

    @property
    def population_size(self) -> int:
        """Number of candidate pairs ``M`` in the full join."""
        return self.collection.total_pairs

    def sample_vectors(
        self, num_vectors: int, population: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw ``num_vectors`` distinct vector ids from ``population``."""
        if num_vectors > population:
            num_vectors = population
        if num_vectors < 1:
            raise InsufficientSampleError("cross sampling needs at least one vector")
        return rng.choice(population, size=num_vectors, replace=False).astype(np.int64)

    def sample(
        self, pair_budget: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Sample pairs with a total budget of roughly ``pair_budget`` pairs.

        Returns
        -------
        (left, right, pairs_considered):
            Index arrays for every pair formed from the vector sample and
            the number of pairs actually formed (the scaling denominator).
        """
        if pair_budget < 1:
            raise ValidationError(f"pair_budget must be >= 1, got {pair_budget}")
        rng = ensure_rng(random_state)
        num_vectors = int(np.ceil(np.sqrt(pair_budget)))
        sampled = self.sample_vectors(max(num_vectors, 2), self.collection.size, rng)
        pairs = np.array(list(combinations(sampled.tolist(), 2)), dtype=np.int64)
        if pairs.size == 0:
            raise InsufficientSampleError("cross sample produced no pairs")
        left, right = pairs[:, 0], pairs[:, 1]
        return left, right, left.size


__all__ = ["UniformPairSampler", "CrossPairSampler"]
