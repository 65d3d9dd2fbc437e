"""Deterministic bucket-key → shard assignment.

The LSH-SS estimator's strata statistics are additive across disjoint
*bucket-key* partitions: a bucket lives wholly inside one shard, so
per-shard ``N_H = Σ C(b_j, 2)`` counts sum to the global ``N_H``, and
every cross-shard pair is guaranteed to be a stratum-L pair (different
shards ⇒ different signatures ⇒ different buckets).  The partitioners
therefore route on the *primary-table signature* — the same ``k``
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

Two partitioners share that hash:

* :class:`KeyPartitioner` — ``hash mod S``.  Fastest, but changing ``S``
  remaps almost every key (a full reshuffle).
* :class:`RendezvousPartitioner` — highest-random-weight (HRW) hashing:
  every shard is assigned a pseudo-random 64-bit weight per key (one
  more splitmix64 avalanche of ``key_hash XOR shard_salt``) and the key
  lives on the shard with the largest weight.  Growing ``S → S + 1``
  moves exactly the keys whose weight under the *new* shard beats all
  old ones — an expected ``1/(S+1)`` fraction — and shrinking moves only
  the departing shard's keys.  This is what makes online rebalancing
  (:mod:`repro.shard.rebalance`) cheap.
"""

from __future__ import annotations

from numbers import Integral
from typing import Dict, Mapping, Union

import numpy as np

from repro.errors import ValidationError
from repro.state import StateSpec

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


def key_signature_matrix(keys: Iterable[bytes], num_hashes: int) -> np.ndarray:
    """Decode serialised bucket keys back into an ``(n, k)`` signature matrix.

    Bucket keys are the little-endian ``int64`` bytes of the signature
    (:func:`repro.streaming.mutable_index.signature_bucket_key`), so the
    round trip is exact — the rebalance planner uses it to re-partition
    every live bucket key in one vectorised pass.
    """
    keys = list(keys)
    if not keys:
        return np.zeros((0, num_hashes), dtype=np.int64)
    flat = np.frombuffer(b"".join(keys), dtype=np.int64)
    if flat.size != len(keys) * num_hashes:
        raise ValidationError(
            f"bucket keys do not decode into k={num_hashes} signature values"
        )
    return flat.reshape(len(keys), num_hashes)


class _SignatureHashPartitioner:
    """Shared scaffolding: key decoding, equality, shard-count plumbing.

    Subclasses set :attr:`kind` and implement ``shard_of_signatures``
    over the shared :func:`signature_shard_hash` content hash; the
    key-bytes path is derived from it, so both entry points always
    agree.
    """

    kind = "abstract"

    def __init__(self, num_shards: int) -> None:
        if num_shards < 1:
            raise ValidationError(f"num_shards must be >= 1, got {num_shards}")
        self.num_shards = int(num_shards)

    def shard_of_signatures(self, signatures: np.ndarray) -> np.ndarray:
        """Owning shards for an ``(n, k)`` signature matrix (batch path)."""
        raise NotImplementedError

    def shard_of(self, key: bytes) -> int:
        """The shard owning the bucket with serialised signature ``key``.

        ``key`` is the bucket-key byte string the tables use
        (little-endian ``int64`` values); the assignment equals
        :meth:`shard_of_signatures` on the corresponding signature row.
        """
        if self.num_shards == 1:
            return 0
        values = np.frombuffer(key, dtype=np.int64)
        return int(self.shard_of_signatures(values)[0])

    def with_num_shards(self, num_shards: int) -> "_SignatureHashPartitioner":
        """The same partitioning scheme over a different shard count."""
        return type(self)(num_shards)

    def __call__(self, key: bytes) -> int:
        return self.shard_of(key)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.num_shards == self.num_shards

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(num_shards={self.num_shards})"


class KeyPartitioner(_SignatureHashPartitioner):
    """Stable modulo assignment of bucket keys to ``num_shards`` shards."""

    kind = "modulo"

    def shard_of_signatures(self, signatures: np.ndarray) -> np.ndarray:
        """Owning shards for an ``(n, k)`` signature matrix (batch path)."""
        hashes = signature_shard_hash(signatures)
        if self.num_shards == 1:
            return np.zeros(hashes.size, dtype=np.int64)
        return (hashes % np.uint64(self.num_shards)).astype(np.int64)


class RendezvousPartitioner(_SignatureHashPartitioner):
    """Highest-random-weight (HRW) assignment with minimal-movement resizes.

    Every shard gets a fixed 64-bit salt (a splitmix64 avalanche of its
    id); a key's weight under a shard is one more avalanche of
    ``key_hash XOR salt``, and the key lives wherever its weight is
    highest.  Each (key, shard) weight is an independent-looking uniform
    draw, so resizing ``S → S'`` moves only the keys whose winner
    changes — an expected ``1/max(S, S')`` fraction — instead of the
    ``(S−1)/S`` a modulo partitioner reshuffles.  Salts depend only on
    the shard id, so shards ``0 … min(S, S')−1`` keep their weights
    across :meth:`with_num_shards` — the minimal-movement property.
    """

    kind = "rendezvous"

    def __init__(self, num_shards: int) -> None:
        super().__init__(num_shards)
        shard_ids = np.arange(1, self.num_shards + 1, dtype=np.uint64)
        self._salts = _splitmix64(shard_ids * np.uint64(_GOLDEN))

    def shard_of_signatures(self, signatures: np.ndarray) -> np.ndarray:
        """Owning shards for an ``(n, k)`` signature matrix (batch path)."""
        hashes = signature_shard_hash(signatures)
        if self.num_shards == 1:
            return np.zeros(hashes.size, dtype=np.int64)
        weights = _splitmix64(hashes[:, None] ^ self._salts[None, :])
        return np.argmax(weights, axis=1).astype(np.int64)


Partitioner = Union[KeyPartitioner, RendezvousPartitioner]

_PARTITIONER_KINDS: Dict[str, type] = {
    KeyPartitioner.kind: KeyPartitioner,
    RendezvousPartitioner.kind: RendezvousPartitioner,
}


def resolve_partitioner(
    spec: Union[str, type, KeyPartitioner, RendezvousPartitioner],
    num_shards: int,
) -> Partitioner:
    """Normalise a partitioner spec: kind string, class, or instance.

    An instance must already match ``num_shards``; a kind string
    (``"modulo"`` / ``"rendezvous"``) or partitioner class is
    instantiated for it.
    """
    if isinstance(spec, str):
        try:
            return _PARTITIONER_KINDS[spec](num_shards)
        except KeyError:
            raise ValidationError(
                f"unknown partitioner kind {spec!r}; "
                f"expected one of {sorted(_PARTITIONER_KINDS)}"
            ) from None
    if isinstance(spec, type):
        return spec(num_shards)
    if spec.num_shards != num_shards:
        raise ValidationError(
            f"partitioner covers {spec.num_shards} shards, expected {num_shards}"
        )
    return spec


#: ``kind`` here is the partitioner kind, a field rather than a fixed tag
_PARTITIONER_STATE = StateSpec(
    "a partitioner state", {"kind": str, "num_shards": Integral}, format=None
)


def partitioner_state(partitioner: Partitioner) -> Dict[str, object]:
    """A picklable description of a partitioner (snapshot substrate)."""
    return _PARTITIONER_STATE.dump(kind=partitioner.kind, num_shards=partitioner.num_shards)


def partitioner_from_state(state: Mapping[str, object]) -> Partitioner:
    """Rebuild a partitioner from :func:`partitioner_state` output."""
    _PARTITIONER_STATE.check(state)
    return resolve_partitioner(str(state["kind"]), int(state["num_shards"]))


__all__ = [
    "KeyPartitioner",
    "RendezvousPartitioner",
    "Partitioner",
    "signature_shard_hash",
    "key_signature_matrix",
    "resolve_partitioner",
    "partitioner_state",
    "partitioner_from_state",
]
