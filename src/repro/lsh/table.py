"""A single LSH table ``D_g`` extended with bucket counts (§4.1.1).

The table hashes every vector of a collection with ``g = (h_1, …, h_k)``
and groups vectors by their full signature.  On top of the conventional
bucket → member lists, the table maintains the *bucket counts* ``b_j``
that the paper adds to the index, from which it derives:

* ``N_H = Σ_j C(b_j, 2)`` — the number of pairs of vectors that share a
  bucket (stratum H),
* ``N_L = M − N_H`` — the number of pairs that do not (stratum L),
* weighted bucket-pair sampling (the SampleH primitive of Algorithm 1),
* uniform sampling of stratum-L pairs via rejection (the SampleL
  primitive).

Buckets are stored in a CSR-like layout (flat member array plus offsets)
so that pair sampling is fully vectorised.

Both primitives are defined once, here, for every index shape —
:func:`sample_weighted_bucket_pairs` and :func:`sample_rejected_pairs`,
with the size and empty-stratum checks in :func:`draw_stratum_pairs`.
Each shape supplies only its bucket layout or population and its
collision test.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh.families import LSHFamily
from repro.lsh.signatures import signature_keys
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection


class LSHTable:
    """One LSH hash table with bucket counts.

    Parameters
    ----------
    family:
        The hash-function family instance representing ``g``.
    collection:
        The vector collection to index.
    signatures:
        Optional pre-computed ``(n, k)`` signature matrix (avoids hashing
        twice when the caller also needs the signatures, e.g. Lattice
        Counting).
    """

    def __init__(
        self,
        family: LSHFamily,
        collection: VectorCollection,
        *,
        signatures: Optional[np.ndarray] = None,
    ):
        self.family = family
        self.collection = collection
        if signatures is None:
            signatures = family.hash_collection(collection)
        else:
            signatures = np.asarray(signatures, dtype=np.int64)
            if signatures.shape != (collection.size, family.num_hashes):
                raise ValidationError(
                    f"signatures shape {signatures.shape} does not match "
                    f"(n={collection.size}, k={family.num_hashes})"
                )
        self.signatures = signatures
        self._build_buckets()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_buckets(self) -> None:
        keys = signature_keys(self.signatures)
        key_to_bucket: Dict[bytes, int] = {}
        bucket_of_vector = np.empty(self.collection.size, dtype=np.int64)
        for vector_id, key in enumerate(keys):
            bucket = key_to_bucket.setdefault(key, len(key_to_bucket))
            bucket_of_vector[vector_id] = bucket
        num_buckets = len(key_to_bucket)
        counts = np.bincount(bucket_of_vector, minlength=num_buckets).astype(np.int64)
        order = np.argsort(bucket_of_vector, kind="stable")
        offsets = np.zeros(num_buckets + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])

        self._bucket_of_vector = bucket_of_vector
        self._bucket_counts = counts
        self._members_flat = order
        self._member_offsets = offsets
        self._num_buckets = num_buckets
        pair_counts = counts * (counts - 1) // 2
        self._bucket_pair_counts = pair_counts
        self._num_collision_pairs = int(pair_counts.sum())

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vectors(self) -> int:
        """Number of indexed vectors ``n``."""
        return self.collection.size

    @property
    def num_hashes(self) -> int:
        """Number of hash functions ``k`` in ``g``."""
        return self.family.num_hashes

    @property
    def num_buckets(self) -> int:
        """Number of non-empty buckets ``n_g``."""
        return self._num_buckets

    @property
    def bucket_counts(self) -> np.ndarray:
        """The bucket counts ``b_j`` (the paper's extension of the index)."""
        return self._bucket_counts

    @property
    def total_pairs(self) -> int:
        """``M = C(n, 2)``: all unordered distinct pairs in the collection."""
        return self.collection.total_pairs

    @property
    def num_collision_pairs(self) -> int:
        """``N_H = Σ_j C(b_j, 2)`` — size of stratum H."""
        return self._num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        """``N_L = M − N_H`` — size of stratum L."""
        return self.total_pairs - self._num_collision_pairs

    def bucket_of(self, vector_id: int) -> int:
        """Return the bucket index ``B(v)`` of a vector."""
        if not 0 <= vector_id < self.num_vectors:
            raise ValidationError(f"vector id {vector_id} out of range [0, {self.num_vectors})")
        return int(self._bucket_of_vector[vector_id])

    @property
    def bucket_assignments(self) -> np.ndarray:
        """Array mapping every vector id to its bucket index."""
        return self._bucket_of_vector

    def bucket_members(self, bucket_id: int) -> np.ndarray:
        """Return the vector ids stored in bucket ``bucket_id``."""
        if not 0 <= bucket_id < self._num_buckets:
            raise ValidationError(f"bucket id {bucket_id} out of range [0, {self._num_buckets})")
        start = self._member_offsets[bucket_id]
        stop = self._member_offsets[bucket_id + 1]
        return self._members_flat[start:stop].copy()

    def same_bucket(self, u: int, v: int) -> bool:
        """``True`` iff vectors ``u`` and ``v`` share a bucket (event H)."""
        return bool(self._bucket_of_vector[u] == self._bucket_of_vector[v])

    def same_bucket_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`same_bucket` over arrays of vector ids."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        return self._bucket_of_vector[left] == self._bucket_of_vector[right]

    # ------------------------------------------------------------------
    # sampling primitives
    # ------------------------------------------------------------------
    def sample_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``sample_size`` uniform pairs from stratum H (SampleH lines 3–4).

        A bucket ``B_j`` is sampled with probability proportional to
        ``C(b_j, 2)`` and two distinct members are drawn uniformly, which
        yields a uniform sample (with replacement) of the pairs in SH.

        Raises
        ------
        InsufficientSampleError
            If no bucket contains two or more vectors (``N_H = 0``).
        """
        return sample_weighted_bucket_pairs(
            self._bucket_counts, self._member_offsets, self._members_flat,
            self._bucket_pair_counts, sample_size, random_state,
        )

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``sample_size`` uniform pairs from stratum L (SampleL line 3).

        Pairs are drawn uniformly from all distinct pairs and rejected
        when the two vectors share a bucket (:func:`sample_rejected_pairs`).
        """
        return sample_rejected_pairs(
            sample_size, self.num_non_collision_pairs,
            lambda batch, rng: sample_uniform_pairs(self.num_vectors, batch, rng),
            self.same_bucket_many, random_state, max_attempts=max_attempts,
        )

    # ------------------------------------------------------------------
    # exhaustive enumeration & bookkeeping
    # ------------------------------------------------------------------
    def iter_collision_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over every pair of vectors that shares a bucket.

        Intended for tests and the virtual-bucket construction; the number
        of yielded pairs is exactly :attr:`num_collision_pairs`.
        """
        for bucket_id in range(self._num_buckets):
            members = self.bucket_members(bucket_id)
            size = members.size
            if size < 2:
                continue
            for i in range(size):
                for j in range(i + 1, size):
                    yield int(members[i]), int(members[j])

    def collision_pairs_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Enumerate every co-bucket pair as ``(left, right)`` index arrays.

        Vectorised counterpart of :meth:`iter_collision_pairs`.  Buckets
        are processed grouped by size: all buckets of size ``s`` share one
        ``np.triu_indices(s, 1)`` template applied to a ``(buckets, s)``
        member matrix, so the Python-level work is one iteration per
        *distinct* bucket size (a handful) rather than per bucket or per
        pair.  Members are stored in increasing vector-id order, hence
        ``left < right`` for every returned pair.  The total output length
        is exactly :attr:`num_collision_pairs`.
        """
        eligible = np.flatnonzero(self._bucket_counts >= 2)
        if eligible.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        sizes = self._bucket_counts[eligible]
        lefts: list = []
        rights: list = []
        for size in np.unique(sizes):
            starts = self._member_offsets[eligible[sizes == size]]
            members = self._members_flat[starts[:, None] + np.arange(size)[None, :]]
            i, j = np.triu_indices(int(size), k=1)
            lefts.append(members[:, i].ravel())
            rights.append(members[:, j].ravel())
        return (
            np.concatenate(lefts).astype(np.int64),
            np.concatenate(rights).astype(np.int64),
        )

    def memory_estimate_bytes(self) -> int:
        """Rough size of the table (§6.3's table-size-vs-k experiment).

        Counts the ``g`` values (k int64 per non-empty bucket), one bucket
        count per bucket, and one vector id per indexed vector, ignoring
        implementation-dependent overheads — the same accounting the paper
        uses.
        """
        g_values = self._num_buckets * self.num_hashes * 8
        bucket_count_bytes = self._num_buckets * 8
        vector_ids = self.num_vectors * 8
        return g_values + bucket_count_bytes + vector_ids

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LSHTable(n={self.num_vectors}, k={self.num_hashes}, "
            f"buckets={self.num_buckets}, NH={self.num_collision_pairs})"
        )


#: draws ``size`` pairs with ``rng``: (left ids, right ids)
PairSource = Callable[[int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]

_EMPTY_STRATUM = {"H": "no two vectors share a bucket", "L": "every pair shares a bucket"}


def draw_stratum_pairs(
    sample_size: int,
    stratum_size: int,
    stratum: str,
    draw: PairSource,
    random_state: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``draw(sample_size, rng)`` as int64 ids, behind the checks every draw shares.

    A negative size raises :class:`~repro.errors.ValidationError`, size 0
    returns empty arrays without touching the generator, and an empty
    stratum (``"H"`` / ``"L"``) raises
    :class:`~repro.errors.InsufficientSampleError`.
    """
    if sample_size < 0:
        raise ValidationError(f"sample_size must be >= 0, got {sample_size}")
    if sample_size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    if stratum_size <= 0:
        raise InsufficientSampleError(f"stratum {stratum} is empty: {_EMPTY_STRATUM[stratum]}")
    left, right = draw(sample_size, ensure_rng(random_state))
    return left.astype(np.int64, copy=False), right.astype(np.int64, copy=False)


def sample_weighted_bucket_pairs(
    counts: np.ndarray,
    offsets: np.ndarray,
    members_flat: np.ndarray,
    pair_counts: np.ndarray,
    sample_size: int,
    random_state: RandomState = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """SampleH: uniform pairs from stratum H given a CSR-style bucket layout.

    A bucket is chosen with probability proportional to ``C(b_j, 2)`` and
    two distinct members are drawn uniformly, which yields a uniform
    sample (with replacement) of all co-bucket pairs.  Shared by every
    self-join shape: static, streaming and sharded.
    """

    def draw(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        eligible = np.flatnonzero(pair_counts > 0)
        weights = pair_counts[eligible].astype(np.float64)
        weights /= weights.sum()
        chosen = rng.choice(eligible, size=size, p=weights)
        sizes = counts[chosen]
        first_position = (rng.random(size) * sizes).astype(np.int64)
        second_position = (rng.random(size) * (sizes - 1)).astype(np.int64)
        second_position = second_position + (second_position >= first_position)
        starts = offsets[chosen]
        return members_flat[starts + first_position], members_flat[starts + second_position]

    return draw_stratum_pairs(sample_size, int(pair_counts.sum()), "H", draw, random_state)


def sample_rejected_pairs(
    sample_size: int,
    stratum_size: int,
    draw: PairSource,
    collides: Callable[[np.ndarray, np.ndarray], np.ndarray],
    random_state: RandomState = None,
    *,
    max_attempts: int = 64,
) -> Tuple[np.ndarray, np.ndarray]:
    """SampleL: uniform pairs from stratum L (``stratum_size`` = ``N_L``) by rejection.

    ``draw`` proposes uniform pairs of the whole population in batches
    of ``max(remaining, 16)``; those ``collides`` marks are rejected.
    Stratum H is a tiny fraction of all pairs for any selective ``g``, so
    rejections are rare; after ``max_attempts`` batches in the degenerate
    case :class:`~repro.errors.InsufficientSampleError` is raised.
    """

    def rejection(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        remaining = size
        for _attempt in range(max_attempts):
            left, right = draw(max(remaining, 16), rng)
            keep = ~collides(left, right)
            lefts.append(left[keep][:remaining])
            rights.append(right[keep][:remaining])
            remaining -= lefts[-1].size
            if remaining <= 0:
                return np.concatenate(lefts), np.concatenate(rights)
        raise InsufficientSampleError(
            "could not sample enough stratum-L pairs; the LSH table groups "
            "almost every pair into a single bucket (k is far too small)"
        )

    return draw_stratum_pairs(sample_size, stratum_size, "L", rejection, random_state)


def uniform_pairs_of(ids: np.ndarray) -> PairSource:
    """A pair source of uniform distinct pairs of ``ids`` (a live-id population)."""

    def draw(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
        left, right = sample_uniform_pairs(ids.size, size, rng)
        return ids[left], ids[right]

    return draw


def sample_uniform_pairs(
    population_size: int, sample_size: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ``sample_size`` uniform distinct-index pairs with replacement.

    The pair ``(i, j)`` is uniform over all ordered pairs with ``i ≠ j``;
    since similarity is symmetric this is equivalent to uniform sampling
    of unordered pairs.
    """
    if population_size < 2:
        raise InsufficientSampleError(
            f"need at least 2 vectors to form a pair, got {population_size}"
        )
    left = rng.integers(0, population_size, size=sample_size)
    right = rng.integers(0, population_size - 1, size=sample_size)
    right = right + (right >= left)
    return left.astype(np.int64), right.astype(np.int64)


__all__ = [
    "LSHTable", "PairSource", "draw_stratum_pairs", "sample_rejected_pairs",
    "sample_uniform_pairs", "sample_weighted_bucket_pairs", "uniform_pairs_of",
]
