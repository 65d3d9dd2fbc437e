"""Locality-Sensitive-Hashing substrate.

The paper's estimators sit on top of a conventional LSH index that is
extended with a per-bucket count (§4.1.1).  This subpackage provides:

* :mod:`~repro.lsh.families` — the one hash-function family, sign
  random projection (Charikar's SimHash, for cosine similarity), and the
  check that refuses any other.
* :mod:`~repro.lsh.signatures` — signature-matrix computation, the
  bucket-key format, and the prefix-collision counts used by the
  Lattice-Counting adaptation.
* :mod:`~repro.lsh.table` — the one LSH table ``D_g`` for
  ``g = (h_1, …, h_k)`` with bucket counts, pair counting ``N_H``, and
  SampleH / SampleL; bulk-built from a collection by the static shape,
  filled by ``insert`` / ``delete`` in the mutable shapes of
  :mod:`repro.streaming` and :mod:`repro.shard`.
* :mod:`~repro.lsh.index` — an index of ``ℓ`` tables plus the
  virtual-bucket view used by the multi-table extensions (§B.2.1).
"""

from repro.lsh.families import LSHFamily, SignRandomProjectionFamily
from repro.lsh.signatures import prefix_collision_counts, signature_matrix
from repro.lsh.table import LSHTable
from repro.lsh.index import LSHIndex

__all__ = [
    "LSHFamily",
    "SignRandomProjectionFamily",
    "signature_matrix",
    "prefix_collision_counts",
    "LSHTable",
    "LSHIndex",
]
