"""An LSH index: ``ℓ`` independent tables plus the virtual-bucket view.

A conventional LSH index for similarity *search* keeps ``ℓ`` tables, each
built from an independently drawn ``g_i = (h_1, …, h_k)``.  The paper's
core estimators need only a single table, but Appendix B.2.1 describes
two ways to exploit all ``ℓ`` tables:

* the **median estimator** — run the single-table estimator on every
  table and take the median of the estimates;
* the **virtual-bucket estimator** — treat a pair as "in the same bucket"
  if it collides in *any* of the ``ℓ`` tables.

:class:`LSHIndex` builds and owns the tables; the estimator-side logic
lives in :mod:`repro.core.multi_table`.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.lsh.families import SignRandomProjectionFamily, check_cosine_family
from repro.lsh.table import LSHTable
from repro.rng import RandomState, ensure_rng, spawn
from repro.vectors.collection import VectorCollection


class LSHIndex:
    """A collection of ``ℓ`` LSH tables over one vector collection.

    Parameters
    ----------
    collection:
        The vectors to index.
    num_hashes:
        ``k`` — number of hash functions per table.
    num_tables:
        ``ℓ`` — number of tables.
    family:
        The family name; only ``"cosine"`` (SimHash) is accepted.  Each
        table draws its own independent hash functions from the family.
    random_state:
        Seed / generator for reproducibility; the ``ℓ`` tables receive
        independent child generators.
    """

    def __init__(
        self,
        collection: VectorCollection,
        *,
        num_hashes: int = 20,
        num_tables: int = 1,
        family: str = "cosine",
        random_state: RandomState = None,
    ):
        if num_tables < 1:
            raise ValidationError(f"num_tables (ℓ) must be >= 1, got {num_tables}")
        self.collection = collection
        self.num_hashes = int(num_hashes)
        self.num_tables = int(num_tables)
        check_cosine_family(family, instance_ok=False)
        rng = ensure_rng(random_state)
        child_rngs = spawn(rng, num_tables)
        self.tables: List[LSHTable] = []
        for child in child_rngs:
            family_instance = SignRandomProjectionFamily(self.num_hashes, random_state=child)
            self.tables.append(LSHTable(family_instance, collection))

    # ------------------------------------------------------------------
    @property
    def primary_table(self) -> LSHTable:
        """The first table — used by the single-table estimators."""
        return self.tables[0]

    def __len__(self) -> int:
        return self.num_tables

    def __getitem__(self, table_index: int) -> LSHTable:
        return self.tables[table_index]

    def __iter__(self):
        return iter(self.tables)

    # ------------------------------------------------------------------
    # virtual-bucket view (§B.2.1)
    # ------------------------------------------------------------------
    def same_bucket_any(self, u: int, v: int) -> bool:
        """``True`` iff ``u`` and ``v`` share a bucket in *any* table."""
        return any(table.same_bucket(u, v) for table in self.tables)

    def same_bucket_any_many(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`same_bucket_any` over index arrays."""
        left = np.asarray(left, dtype=np.int64)
        right = np.asarray(right, dtype=np.int64)
        result = np.zeros(left.shape, dtype=bool)
        for table in self.tables:
            result |= table.same_bucket_many(left, right)
        return result

    def virtual_collision_pairs(
        self, *, max_pairs: int = 5_000_000
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Enumerate the deduplicated set of pairs colliding in any table.

        These pairs form the virtual stratum H of the virtual-bucket
        estimator.  The construction walks each table's buckets and
        deduplicates pairs; the total work is ``Σ_i N_H(table_i)`` which
        is modest for any selective ``k``.  ``max_pairs`` guards against a
        degenerate configuration (tiny ``k``) where nearly every pair
        collides and enumeration would be quadratic.

        Returns
        -------
        (left, right):
            Arrays of equal length listing each colliding pair once with
            ``left < right``.
        """
        budget = sum(table.num_collision_pairs for table in self.tables)
        if budget > max_pairs:
            raise ValidationError(
                f"virtual bucket enumeration would touch {budget} pairs "
                f"(> max_pairs={max_pairs}); increase k or max_pairs"
            )
        n = self.collection.size
        # Each ordered pair (u < v) packs into the int64 key u * n + v,
        # which is collision-free and overflow-safe for n < ~3e9; a single
        # np.unique over the concatenated keys replaces the former Python
        # set of tuples.
        keys: List[np.ndarray] = []
        for table in self.tables:
            left, right = table.collision_pairs_arrays()
            low = np.minimum(left, right)
            high = np.maximum(left, right)
            keys.append(low * np.int64(n) + high)
        if not keys:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        unique_keys = np.unique(np.concatenate(keys))
        return unique_keys // n, unique_keys % n

    def memory_estimate_bytes(self) -> int:
        """Total estimated size across all tables."""
        return int(sum(table.memory_estimate_bytes() for table in self.tables))

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LSHIndex(n={self.collection.size}, k={self.num_hashes}, "
            f"tables={self.num_tables})"
        )


__all__ = ["LSHIndex"]
