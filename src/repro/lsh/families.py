"""LSH hash-function families.

Definition 3 of the paper idealises an LSH family as one where
``P(h(u) = h(v)) = sim(u, v)``.  Every estimator here evaluates cosine
similarity, so the one family is :class:`SignRandomProjectionFamily`
(Charikar's SimHash): ``P = 1 − θ(u, v)/π``, i.e. the property holds for
the *angular* similarity, a monotone transform of cosine similarity.  The
analytical estimators account for this via
:func:`repro.vectors.similarity.cosine_to_angular_collision`.
:func:`check_cosine_family` refuses every other family.

A family hashes a raw CSR matrix into an ``(n, k)`` integer signature
matrix (:meth:`LSHFamily.hash_matrix`); the batch path
(:meth:`LSHFamily.hash_collection`) and the streaming per-vector path
(:class:`repro.streaming.MutableLSHIndex`) both delegate to it, so a
vector inserted incrementally receives exactly the signature it would
have received in a build-once batch hash.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np
from scipy import sparse

from repro.errors import ValidationError
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection


class LSHFamily(abc.ABC):
    """Abstract base class for LSH hash-function families.

    A family instance represents ``k`` concrete hash functions
    ``g = (h_1, …, h_k)`` drawn from the family, i.e. exactly the ``g``
    used to build one LSH table.

    Parameters
    ----------
    num_hashes:
        The number of hash functions ``k`` concatenated into ``g``.
    random_state:
        Seed or generator controlling the random draws of the functions.
    """

    def __init__(self, num_hashes: int, *, random_state: RandomState = None):
        if num_hashes < 1:
            raise ValidationError(f"num_hashes (k) must be >= 1, got {num_hashes}")
        self.num_hashes = int(num_hashes)
        self._rng = ensure_rng(random_state)
        self._initialised_dimension: Optional[int] = None

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _initialise(self, dimension: int) -> None:
        """Draw the random parameters of the ``k`` hash functions."""

    @abc.abstractmethod
    def _hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        """Return the ``(rows, k)`` integer signature matrix for a CSR matrix."""

    # ------------------------------------------------------------------
    def ensure_initialised(self, dimension: int) -> None:
        """Bind the family to ``dimension``, drawing parameters on first use.

        The family lazily initialises its random parameters for the first
        dimensionality it sees and then requires every subsequent input to
        share that dimensionality, so the same ``g`` can hash both sides
        of a general (non-self) join, or a stream of vectors arriving one
        at a time.
        """
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        if self._initialised_dimension is None:
            self._initialise(int(dimension))
            self._initialised_dimension = int(dimension)
        elif self._initialised_dimension != dimension:
            raise ValidationError(
                "this family was initialised for dimension "
                f"{self._initialised_dimension}, got input of dimension "
                f"{dimension}"
            )

    def hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        """Hash the rows of a canonical ``(rows, d)`` CSR matrix into signatures.

        This is the single implementation point shared by the batch path
        (:meth:`hash_collection`) and the streaming per-vector path
        (:class:`repro.streaming.MutableLSHIndex`), guaranteeing that
        incremental and build-once signatures are identical.  Input is
        canonicalised by :mod:`repro.vectors.collection` before it gets here.
        """
        self.ensure_initialised(matrix.shape[1])
        signatures = self._hash_matrix(matrix)
        if signatures.shape != (matrix.shape[0], self.num_hashes):
            raise ValidationError(
                "family produced a signature matrix of shape "
                f"{signatures.shape}, expected {(matrix.shape[0], self.num_hashes)}"
            )
        return signatures

    def hash_collection(self, collection: VectorCollection) -> np.ndarray:
        """Hash every vector of ``collection``; returns an ``(n, k)`` int array."""
        return self.hash_matrix(collection.matrix)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(k={self.num_hashes})"


class SignRandomProjectionFamily(LSHFamily):
    """Charikar's hyperplane (SimHash) family for cosine similarity.

    Each hash function ``h_r(u) = sign(r · u)`` with ``r`` a random
    Gaussian vector.  Collision probability is ``1 − θ(u, v)/π`` where
    ``θ`` is the angle between the vectors.
    """

    def __init__(self, num_hashes: int, *, random_state: RandomState = None):
        super().__init__(num_hashes, random_state=random_state)
        self._projections: Optional[np.ndarray] = None

    def _initialise(self, dimension: int) -> None:
        self._projections = self._rng.standard_normal((dimension, self.num_hashes))

    def _hash_matrix(self, matrix: sparse.csr_matrix) -> np.ndarray:
        assert self._projections is not None
        projected = np.asarray(matrix @ self._projections)
        return (projected > 0.0).astype(np.int64)


def check_cosine_family(family: object, *, instance_ok: bool = True) -> None:
    """Refuse every family but cosine SimHash: the name ``"cosine"``, or —
    where a pre-built family is accepted (``instance_ok``) — a
    :class:`SignRandomProjectionFamily` instance."""
    if isinstance(family, str) and family == "cosine":
        return
    if instance_ok and isinstance(family, SignRandomProjectionFamily):
        return
    expected = (
        "'cosine' or a SignRandomProjectionFamily" if instance_ok else "the name string 'cosine'"
    )
    raise ValidationError(
        f"unsupported LSH family {family!r}: the estimators evaluate cosine "
        f"similarity, so the family must be {expected}"
    )


__all__ = [
    "LSHFamily",
    "SignRandomProjectionFamily",
    "check_cosine_family",
]
