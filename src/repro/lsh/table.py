"""The LSH table ``D_g`` extended with bucket counts (§4.1.1), for every shape.

The table groups vectors by their full signature ``g = (h_1, …, h_k)``.
On top of the conventional bucket → member lists it keeps the *bucket
counts* ``b_j`` the paper adds to the index, from which it derives:

* ``N_H = Σ_j C(b_j, 2)`` — the number of pairs of vectors that share a
  bucket (stratum H),
* ``N_L = M − N_H`` — the number of pairs that do not (stratum L),
* weighted bucket-pair sampling (the SampleH primitive of Algorithm 1),
* uniform sampling of stratum-L pairs via rejection (the SampleL
  primitive).

One class serves every shape.  The static shape bulk-loads a whole
collection in one grouping pass (``LSHTable(family, collection)``); the
streaming, sharded and process shapes start from ``LSHTable(family)``
and ``insert`` / ``delete`` one vector at a time while ``N_H`` stays
exact.  A vector's signature never changes, so a surviving pair never
migrates between the strata; mutations only add or remove pairs.

SampleL's collision test is one array compare, ``slot[l] == slot[r]``,
over an id → bucket-slot array.  SampleH draws from a flat CSR view of
the buckets, frozen lazily with the live-id population SampleL draws
from; any mutation drops it, so bursts of updates between queries pay
for one rebuild.  :func:`draw_stratum_pairs` and
:func:`sample_rejected_pairs` hold the size and empty-stratum checks and
the rejection loop that the two-collection and virtual-bucket tables
(:mod:`repro.core`) share.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh.families import LSHFamily
from repro.lsh.signatures import signature_bucket_key, signature_keys
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection

#: The bucket layout in bucket order: ``[(key, [member, …]), …]``.
BucketState = List[Tuple[bytes, List[int]]]


class _FrozenView(NamedTuple):
    """SampleH's CSR layout over the buckets with ≥ 2 members, and SampleL's population."""

    counts: np.ndarray
    offsets: np.ndarray
    members: np.ndarray
    population: np.ndarray


class LSHTable:
    """One LSH hash table with bucket counts, bulk-built or mutated in place.

    Parameters
    ----------
    family:
        The hash-function family instance representing ``g``.
    collection:
        The vector collection to index as ids ``0 … n−1``; omitted, the
        table starts empty and is filled through :meth:`insert`.
    signatures:
        Optional pre-computed ``(n, k)`` signature matrix of
        ``collection`` (avoids hashing twice when the caller also needs
        the signatures, e.g. Lattice Counting).

    Buckets live in slots: a key → slot dict in bucket-creation order
    (the order :meth:`bucket_state` and the SampleH layout follow), one
    member list per slot kept in swap-pop order, and id-indexed arrays
    holding each live id's slot (−1 when absent), its position in its
    bucket and its position among the live ids.  A bucket that empties
    frees its slot for the next new key.
    """

    def __init__(
        self,
        family: LSHFamily,
        collection: Optional[VectorCollection] = None,
        *,
        signatures: Optional[np.ndarray] = None,
    ) -> None:
        self.family = family
        self._collection = collection
        self._signatures: Optional[np.ndarray] = None
        self._load({}, [], [])
        if collection is None:
            return
        if signatures is None:
            signatures = family.hash_collection(collection)
        else:
            signatures = np.asarray(signatures, dtype=np.int64)
            if signatures.shape != (collection.size, family.num_hashes):
                raise ValidationError(
                    f"signatures shape {signatures.shape} does not match "
                    f"(n={collection.size}, k={family.num_hashes})"
                )
        self._signatures = signatures
        # one grouping pass: ids 0 … n−1 into buckets in first-seen order
        slot_of_key: Dict[bytes, int] = {}
        slots = np.fromiter(
            (slot_of_key.setdefault(key, len(slot_of_key)) for key in signature_keys(signatures)),
            np.int64, collection.size,
        )
        counts = np.bincount(slots, minlength=len(slot_of_key))
        bounds = np.concatenate([[0], np.cumsum(counts)]).tolist()
        flat = np.argsort(slots, kind="stable").tolist()
        members = [flat[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]
        self._load(slot_of_key, members, list(range(collection.size)))

    def _load(
        self, slot_of_key: Dict[bytes, int], members: List[List[int]], live: List[int]
    ) -> None:
        """Replace the whole table: the bucket whose key maps to slot ``s``
        holds ``members[s]`` (slots ``0 … len(members)−1`` in key order),
        and ``live`` is the live-id order."""
        counts = np.fromiter(map(len, members), np.int64, len(members))
        flat = np.fromiter(chain.from_iterable(members), np.int64, int(counts.sum()))
        live_ids = np.asarray(live, dtype=np.int64).reshape(-1)
        ordered = np.sort(flat)
        if np.any(ordered[1:] == ordered[:-1]):
            raise ValidationError("bucket state repeats a vector id")
        if not np.array_equal(ordered, np.sort(live_ids)):
            raise ValidationError("bucket members are not exactly the live ids")
        if flat.size and ordered[0] < 0:
            raise ValidationError(f"vector ids must be >= 0, got {ordered[0]}")
        if counts.size and counts.min() == 0:
            raise ValidationError("bucket state holds an empty bucket")
        self._slot_of_key = slot_of_key
        size = int(ordered[-1]) + 1 if flat.size else 0
        slot, position, live_position = (np.full(size, -1, dtype=np.int64) for _ in range(3))
        starts = np.cumsum(counts) - counts
        slot[flat] = np.repeat(np.arange(counts.size), counts)
        position[flat] = np.arange(flat.size) - np.repeat(starts, counts)
        live_position[live_ids] = np.arange(live_ids.size)
        # the slots are an array for the vectorised collision test; the
        # positions are only read one at a time, which lists do faster
        self._slot = slot
        self._position: List[int] = position.tolist()
        self._live_position: List[int] = live_position.tolist()
        self._keys = list(slot_of_key)
        self._members = members
        self._free: List[int] = []
        self._live: List[int] = live_ids.tolist()
        self._num_collision_pairs = int(np.sum(counts * (counts - 1) // 2))
        self._frozen: Optional[_FrozenView] = None

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def collection(self) -> VectorCollection:
        """The collection a static table was built from (LSH-S, LC, J_U read it)."""
        if self._collection is None:
            raise ValidationError("a table built from its family alone has no collection")
        return self._collection

    @property
    def signatures(self) -> np.ndarray:
        """The ``(n, k)`` signature matrix of a static table's collection."""
        if self._signatures is None:
            raise ValidationError("a table built from its family alone has no signatures")
        return self._signatures

    @property
    def num_vectors(self) -> int:
        """Number of live (indexed) vectors ``n``."""
        return len(self._live)

    @property
    def num_hashes(self) -> int:
        """Number of hash functions ``k`` in ``g``."""
        return self.family.num_hashes

    @property
    def num_buckets(self) -> int:
        """Number of non-empty buckets ``n_g``."""
        return len(self._slot_of_key)

    @property
    def bucket_counts(self) -> np.ndarray:
        """The bucket counts ``b_j`` (the paper's extension of the index), in bucket order."""
        members = self._members
        return np.fromiter(
            (len(members[slot]) for slot in self._slot_of_key.values()), np.int64, self.num_buckets
        )

    @property
    def total_pairs(self) -> int:
        """``M = C(n, 2)``: all unordered distinct pairs of live vectors."""
        n = self.num_vectors
        return n * (n - 1) // 2

    @property
    def num_collision_pairs(self) -> int:
        """``N_H = Σ_j C(b_j, 2)`` — size of stratum H, exact under mutation."""
        return self._num_collision_pairs

    @property
    def num_non_collision_pairs(self) -> int:
        """``N_L = M − N_H`` — size of stratum L."""
        return self.total_pairs - self._num_collision_pairs

    @property
    def ids(self) -> np.ndarray:
        """The live ids in swap-pop order (a fresh array)."""
        return np.asarray(self._live, dtype=np.int64)

    def __contains__(self, vector_id: int) -> bool:
        return bool(0 <= vector_id < self._slot.size and self._slot.item(vector_id) >= 0)

    def _slot_of(self, vector_id: int) -> int:
        if 0 <= vector_id < self._slot.size:
            slot: int = self._slot.item(vector_id)
            if slot >= 0:
                return slot
        raise ValidationError(f"vector id {vector_id} is not in the table")

    def _slots(self, ids: np.ndarray) -> np.ndarray:
        """The slot of every id; refuses the first one not live (a −1 or an
        out-of-range id must not index the array)."""
        slot = self._slot
        if ids.size == 0 or (ids.min() >= 0 and ids.max() < slot.size):
            slots = slot[ids]
            if slots.size == 0 or slots.min() >= 0:
                return slots
        missing = next(int(i) for i in ids.ravel() if int(i) not in self)
        raise ValidationError(f"vector id {missing} is not in the table")

    def signature_key(self, vector_id: int) -> bytes:
        """The bucket key of a live vector."""
        return self._keys[self._slot_of(vector_id)]

    def bucket_size_of(self, vector_id: int) -> int:
        """Size of the bucket containing live ``vector_id``."""
        return len(self._members[self._slot_of(vector_id)])

    def same_bucket(self, u: int, v: int) -> bool:
        """``True`` iff live vectors ``u`` and ``v`` share a bucket (event H)."""
        return self._slot_of(u) == self._slot_of(v)

    def same_bucket_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`same_bucket` over arrays of live vector ids."""
        slots_left = self._slots(np.asarray(left, dtype=np.int64))
        same: np.ndarray = slots_left == self._slots(np.asarray(right, dtype=np.int64))
        return same

    def bucket_keys(self) -> List[bytes]:
        """The live bucket keys, in bucket order."""
        return list(self._slot_of_key)

    def bucket_members_by_key(self, key: bytes) -> List[int]:
        """The member list of the bucket keyed by ``key`` (do not mutate).

        Used by the sharded facade to find the members of a bucket it
        migrates to another shard.
        """
        try:
            return self._members[self._slot_of_key[key]]
        except KeyError:
            raise ValidationError("no bucket with the given signature key") from None

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, vector_id: int, signature: np.ndarray) -> int:
        """Insert a vector with a precomputed ``(k,)`` signature row.

        Returns the number of co-bucket pairs the insertion created (the
        size of the target bucket before insertion).
        """
        return self.insert_key(vector_id, signature_bucket_key(signature, self.num_hashes))

    def insert_key(self, vector_id: int, key: bytes) -> int:
        """:meth:`insert` for a vector whose bucket key is already known."""
        vector_id = int(vector_id)
        if vector_id in self:
            raise ValidationError(f"vector id {vector_id} is already in the table")
        if vector_id < 0:
            raise ValidationError(f"vector ids must be >= 0, got {vector_id}")
        if vector_id >= self._slot.size:
            grow = max(vector_id + 1, 2 * self._slot.size) - self._slot.size
            self._slot = np.concatenate([self._slot, np.full(grow, -1, dtype=np.int64)])
            self._position += [-1] * grow
            self._live_position += [-1] * grow
        slot = self._slot_of_key.get(key)
        if slot is None:
            if self._free:
                slot = self._free.pop()
                self._keys[slot] = key
            else:
                slot = len(self._members)
                self._keys.append(key)
                self._members.append([])
            self._slot_of_key[key] = slot
        bucket = self._members[slot]
        new_pairs = len(bucket)
        self._slot[vector_id] = slot
        self._position[vector_id] = new_pairs
        bucket.append(vector_id)
        self._live_position[vector_id] = len(self._live)
        self._live.append(vector_id)
        self._num_collision_pairs += new_pairs
        self._frozen = None
        return new_pairs

    def delete(self, vector_id: int) -> int:
        """Remove a live vector; returns the number of co-bucket pairs removed."""
        slot = self._slot_of(vector_id)
        vector_id = int(vector_id)
        bucket = self._members[slot]
        _swap_pop(bucket, self._position, vector_id)
        _swap_pop(self._live, self._live_position, vector_id)
        self._slot[vector_id] = -1
        if not bucket:
            del self._slot_of_key[self._keys[slot]]
            self._free.append(slot)
        removed_pairs = len(bucket)
        self._num_collision_pairs -= removed_pairs
        self._frozen = None
        return removed_pairs

    # ------------------------------------------------------------------
    # sampling primitives
    # ------------------------------------------------------------------
    def _view(self) -> _FrozenView:
        if self._frozen is None:
            buckets = [
                members for members in map(self._members.__getitem__, self._slot_of_key.values())
                if len(members) >= 2
            ]
            counts = np.fromiter(map(len, buckets), np.int64, len(buckets))
            offsets = np.zeros(counts.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            members = np.fromiter(chain.from_iterable(buckets), np.int64, int(offsets[-1]))
            self._frozen = _FrozenView(counts, offsets, members, self.ids)
        return self._frozen

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

        def draw(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
            counts, offsets, members, _population = self._view()
            weights = (counts * (counts - 1) // 2).astype(np.float64)
            weights /= weights.sum()
            chosen = rng.choice(counts.size, size=size, p=weights)
            sizes = counts[chosen]
            first_position = (rng.random(size) * sizes).astype(np.int64)
            second_position = (rng.random(size) * (sizes - 1)).astype(np.int64)
            second_position = second_position + (second_position >= first_position)
            starts = offsets[chosen]
            return members[starts + first_position], members[starts + second_position]

        return draw_stratum_pairs(
            sample_size, self._num_collision_pairs, "H", draw, random_state
        )

    def sample_non_collision_pairs(
        self, sample_size: int, *, random_state: RandomState = None, max_attempts: int = 64
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sample ``sample_size`` uniform pairs from stratum L (SampleL line 3).

        Pairs are drawn uniformly from all distinct pairs of live ids and
        rejected when the two vectors share a bucket
        (:func:`sample_rejected_pairs`).
        """

        def draw(size: int, rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
            population = self._view().population
            left, right = sample_uniform_pairs(population.size, size, rng)
            return population[left], population[right]

        return sample_rejected_pairs(
            sample_size, self.num_non_collision_pairs, draw,
            self.same_bucket_many, random_state, max_attempts=max_attempts,
        )

    # ------------------------------------------------------------------
    # exhaustive enumeration & bookkeeping
    # ------------------------------------------------------------------
    def collision_pairs_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Enumerate every co-bucket pair as ``(left, right)`` index arrays.

        Members are grouped by slot in increasing id order, hence
        ``left < right`` for every pair.  Buckets are processed grouped
        by size: all buckets of size ``s`` share one
        ``np.triu_indices(s, 1)`` template applied to a ``(buckets, s)``
        member matrix, so the Python-level work is one iteration per
        *distinct* bucket size (a handful) rather than per bucket or per
        pair.  The total output length is exactly
        :attr:`num_collision_pairs`.
        """
        ids = np.flatnonzero(self._slot >= 0)
        slots = self._slot[ids]
        members_flat = ids[np.argsort(slots, kind="stable")]
        counts = np.bincount(slots, minlength=len(self._members))
        offsets = np.cumsum(counts) - counts
        eligible = np.flatnonzero(counts >= 2)
        if eligible.size == 0:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        sizes = counts[eligible]
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        for size in np.unique(sizes):
            starts = offsets[eligible[sizes == size]]
            members = members_flat[starts[:, None] + np.arange(size)[None, :]]
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
        g_values = self.num_buckets * self.num_hashes * 8
        bucket_count_bytes = self.num_buckets * 8
        vector_ids = self.num_vectors * 8
        return g_values + bucket_count_bytes + vector_ids

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def bucket_state(self) -> BucketState:
        """The bucket layout in bucket order (snapshot substrate).

        Preserving the order matters: the SampleH layout is derived from
        it, so a restored table replays the same draws the original would
        for the same generator state.
        """
        return [(key, list(self._members[slot])) for key, slot in self._slot_of_key.items()]

    def load_bucket_state(self, buckets: BucketState, live_ids: Sequence[int]) -> None:
        """Replace the table with a captured bucket layout and live-id order.

        Refuses (:class:`~repro.errors.ValidationError`) a repeated key or
        id, an empty bucket, or members that are not exactly ``live_ids``.
        """
        slot_of_key = {bytes(key): slot for slot, (key, _members) in enumerate(buckets)}
        if len(slot_of_key) != len(buckets):
            raise ValidationError("bucket state repeats a key")
        self._load(
            slot_of_key,
            [[int(member) for member in members] for _key, members in buckets],
            [int(vector_id) for vector_id in live_ids],
        )

    def check_invariants(self) -> None:
        """Verify the incremental bookkeeping against a from-scratch recount."""
        counts = self.bucket_counts
        recomputed = int(np.sum(counts * (counts - 1) // 2))
        if recomputed != self._num_collision_pairs:
            raise AssertionError(
                f"N_H bookkeeping drifted: incremental={self._num_collision_pairs}, "
                f"recount={recomputed}"
            )
        live = self.ids
        if int(counts.sum()) != live.size or np.count_nonzero(self._slot >= 0) != live.size:
            raise AssertionError("member bookkeeping drifted")
        if not np.array_equal(np.asarray(self._live_position)[live], np.arange(live.size)):
            raise AssertionError("live-id positions drifted")
        for key, slot in self._slot_of_key.items():
            members = np.asarray(self._members[slot], dtype=np.int64)
            if self._keys[slot] != key or np.any(self._slot[members] != slot) or not (
                np.array_equal(np.asarray(self._position)[members], np.arange(members.size))
            ):
                raise AssertionError(f"bucket slot {slot} drifted")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LSHTable(n={self.num_vectors}, k={self.num_hashes}, "
            f"buckets={self.num_buckets}, NH={self.num_collision_pairs})"
        )


def _swap_pop(items: List[int], positions: List[int], vector_id: int) -> None:
    """Remove ``vector_id`` from ``items``; the last item moves into its place."""
    position = positions[vector_id]
    last = items.pop()
    if last != vector_id:
        items[position] = last
        positions[last] = position


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
    "sample_uniform_pairs",
]
