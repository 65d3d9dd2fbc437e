"""Deterministic bucket-key → shard assignment.

The LSH-SS estimator's strata statistics are additive across disjoint
*bucket-key* partitions: a bucket lives wholly inside one shard, so
per-shard ``N_H = Σ C(b_j, 2)`` counts sum to the global ``N_H``, and
every cross-shard pair is guaranteed to be a stratum-L pair (different
shards ⇒ different signatures ⇒ different buckets).  The partitioner
therefore routes on the *primary-table signature* — the same ``k``
integers the tables serialise into bucket keys.

Assignment is a content hash of the signature values (a splitmix64
finalizer per hash value folded FNV-style, which avalanches even the
0/1-valued SimHash signatures), so it is stable across processes,
platforms, and restarts — a requirement for checkpoint/restore and for
replaying a :class:`~repro.streaming.events.ChangeLog` onto a fresh
cluster.  Python's salted built-in ``hash`` must never be used here.
The hash is computed either from an ``(n, k)`` signature matrix in one
vectorised pass (``shard_of_signatures``, the router batch path) or from
the serialised key bytes (``shard_of``); both give identical
assignments.

:class:`KeyPartitioner` places a key by highest-random-weight (HRW)
hashing over that content hash, so growing ``S → S + 1`` moves an
expected ``1/(S+1)`` of the keys (all onto the new shard) and shrinking
moves only the departing shards' keys — which keeps a resize
(:mod:`repro.shard.rebalance`) cheap.  Where a bucket lives never
changes an estimate; it only changes how much a resize moves.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

_MASK_64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_FNV_PRIME = np.uint64(0x100000001B3)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)


def _splitmix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, element-wise over ``uint64`` arrays."""
    mixed = (values ^ (values >> np.uint64(30))) * _MIX_1
    mixed = (mixed ^ (mixed >> np.uint64(27))) * _MIX_2
    return mixed ^ (mixed >> np.uint64(31))


def signature_shard_hash(signatures: np.ndarray) -> np.ndarray:
    """64-bit content hash per signature row, fully vectorised.

    Each of the ``k`` values is offset by a column constant, avalanched
    with the splitmix64 finalizer, and folded into an FNV-style
    accumulator.  All arithmetic is modular ``uint64`` (NumPy wraps
    silently on arrays), so the result is platform-independent.
    """
    values = np.ascontiguousarray(np.asarray(signatures, dtype=np.int64))
    if values.ndim == 1:
        values = values[None, :]
    bits = values.view(np.uint64)
    accumulator = np.full(bits.shape[0], _FNV_OFFSET, dtype=np.uint64)
    for column in range(bits.shape[1]):
        mixed = _splitmix64(
            bits[:, column] + np.uint64(((column + 1) * _GOLDEN) & _MASK_64)
        )
        accumulator = (accumulator ^ mixed) * _FNV_PRIME
    return accumulator ^ (accumulator >> np.uint64(33))


class KeyPartitioner:
    """Highest-random-weight (HRW) assignment of bucket keys to shards.

    Every shard gets a fixed 64-bit salt (a splitmix64 avalanche of its
    id); a key's weight under a shard is one more avalanche of
    ``key_hash XOR salt``, and the key lives wherever its weight is
    highest.  Each (key, shard) weight is an independent-looking uniform
    draw, so resizing ``S → S'`` moves only the keys whose winner
    changes — an expected ``1/max(S, S')`` fraction.  Salts depend only
    on the shard id, so shards ``0 … min(S, S')−1`` keep their weights
    across a resize — the minimal-movement property.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)
        shard_ids = np.arange(1, self.num_shards + 1, dtype=np.uint64)
        self._salts = _splitmix64(shard_ids * np.uint64(_GOLDEN))

    def shard_of_hashes(self, hashes: np.ndarray) -> np.ndarray:
        """Owning shards for :func:`signature_shard_hash` values."""
        if self.num_shards == 1:
            return np.zeros(hashes.size, dtype=np.int64)
        weights = _splitmix64(hashes[:, None] ^ self._salts[None, :])
        return np.argmax(weights, axis=1).astype(np.int64, copy=False)

    def shard_of_signatures(self, signatures: np.ndarray) -> np.ndarray:
        """Owning shards for an ``(n, k)`` signature matrix (batch path)."""
        return self.shard_of_hashes(signature_shard_hash(signatures))

    def shard_of(self, key: bytes) -> int:
        """The shard owning the bucket with serialised signature ``key``.

        ``key`` is the bucket-key byte string the tables use
        (little-endian ``int64`` values); the assignment equals
        :meth:`shard_of_signatures` on the corresponding signature row.
        """
        if self.num_shards == 1:
            return 0
        return int(self.shard_of_signatures(np.frombuffer(key, dtype=np.int64))[0])

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.num_shards == self.num_shards

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"KeyPartitioner(num_shards={self.num_shards})"


__all__ = [
    "KeyPartitioner",
    "signature_shard_hash",
]
