"""Signature-matrix helpers shared by the LSH table and Lattice Counting.

A *signature* of a vector is the tuple ``g(v) = (h_1(v), …, h_k(v))``.
The LSH table groups vectors by their full signature, serialised into a
*bucket key*: the little-endian ``int64`` bytes of the row.  This module
owns that format — :func:`signature_keys` encodes a matrix,
:func:`signature_bucket_key` one row, and :func:`key_signature_matrix`
decodes.  The
Lattice-Counting adaptation additionally needs, for every prefix length
``j ≤ k``, the number of pairs whose first ``j`` hash values all agree —
those counts are (noisy) observations of the ``j``-th moments of the
pair-similarity distribution.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from repro.errors import ValidationError
from repro.lsh.families import LSHFamily
from repro.vectors.collection import VectorCollection


def signature_matrix(family: LSHFamily, collection: VectorCollection) -> np.ndarray:
    """Compute the ``(n, k)`` signature matrix of ``collection`` under ``family``."""
    return family.hash_collection(collection)


def signature_keys(signatures: np.ndarray, prefix_length: int | None = None) -> List[bytes]:
    """Serialise each signature row (or a prefix of it) into a hashable key.

    Parameters
    ----------
    signatures:
        ``(n, k)`` integer matrix.
    prefix_length:
        Use only the first ``prefix_length`` hash values; defaults to all.
    """
    if signatures.ndim != 2:
        raise ValidationError("signatures must be a 2-D (n, k) matrix")
    k = signatures.shape[1]
    if prefix_length is None:
        prefix_length = k
    if not 1 <= prefix_length <= k:
        raise ValidationError(
            f"prefix_length must be in [1, {k}], got {prefix_length}"
        )
    prefix = np.ascontiguousarray(signatures[:, :prefix_length], dtype=np.int64)
    return [row.tobytes() for row in prefix]


def signature_bucket_key(signature: np.ndarray, num_hashes: int) -> bytes:
    """The bucket key of one ``(k,)`` signature row (its :func:`signature_keys` key)."""
    row = np.ascontiguousarray(signature, dtype=np.int64).ravel()
    if row.size != num_hashes:
        raise ValidationError(f"signature has {row.size} values, expected k={num_hashes}")
    return row.tobytes()


def key_signature_matrix(keys: Iterable[bytes], num_hashes: int) -> np.ndarray:
    """Decode bucket keys back into an ``(n, k)`` signature matrix (exact round trip)."""
    keys = list(keys)
    if not keys:
        return np.zeros((0, num_hashes), dtype=np.int64)
    flat = np.frombuffer(b"".join(keys), dtype=np.int64)
    if flat.size != len(keys) * num_hashes:
        raise ValidationError(
            f"bucket keys do not decode into k={num_hashes} signature values"
        )
    return flat.reshape(len(keys), num_hashes)


def group_by_signature(
    signatures: np.ndarray, prefix_length: int | None = None
) -> Dict[bytes, np.ndarray]:
    """Group vector ids by (prefix of) signature; returns key → id array."""
    keys = signature_keys(signatures, prefix_length)
    groups: Dict[bytes, List[int]] = {}
    for vector_id, key in enumerate(keys):
        groups.setdefault(key, []).append(vector_id)
    return {key: np.asarray(ids, dtype=np.int64) for key, ids in groups.items()}


def collision_pair_count(bucket_sizes: np.ndarray) -> int:
    """``Σ_j C(b_j, 2)`` — the number of co-bucket pairs for given bucket sizes."""
    sizes = np.asarray(bucket_sizes, dtype=np.int64)
    return int(np.sum(sizes * (sizes - 1) // 2))


def prefix_collision_counts(signatures: np.ndarray) -> np.ndarray:
    """Number of pairs agreeing on the first ``j`` hashes, for ``j = 1..k``.

    Returns
    -------
    numpy.ndarray
        ``counts[j - 1] = |{(u, v): h_1..h_j all collide}|``.  Because a
        collision on a longer prefix implies one on every shorter prefix,
        the sequence is non-increasing.  Under the LSH property the
        expectation of ``counts[j-1]`` is ``Σ_pairs s(u,v)^j``, i.e. ``M``
        times the ``j``-th raw moment of the pair-similarity distribution
        — the quantity the Lattice-Counting adaptation fits its power law
        to.
    """
    if signatures.ndim != 2:
        raise ValidationError("signatures must be a 2-D (n, k) matrix")
    k = signatures.shape[1]
    counts = np.zeros(k, dtype=np.int64)
    for prefix_length in range(1, k + 1):
        groups = group_by_signature(signatures, prefix_length)
        sizes = np.asarray([ids.size for ids in groups.values()], dtype=np.int64)
        counts[prefix_length - 1] = collision_pair_count(sizes)
    return counts


__all__ = [
    "signature_matrix",
    "signature_keys",
    "signature_bucket_key",
    "key_signature_matrix",
    "group_by_signature",
    "collision_pair_count",
    "prefix_collision_counts",
]
