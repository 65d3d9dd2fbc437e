"""E14 — virtual-bucket pair enumeration: packed-key dedup vs Python set.

``LSHIndex.virtual_collision_pairs`` used to deduplicate the pairs of the
virtual stratum H with a Python ``set`` of ``(u, v)`` tuples, paying
per-pair interpreter overhead.  The current implementation packs each
pair into a single ``int64`` key (``u * n + v``) and deduplicates with
one ``np.unique``.  This benchmark keeps the legacy strategy alive as a
reference, checks both produce the identical pair set, and reports the
speedup.
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks._helpers import emit, format_table


def _legacy_virtual_pairs(index):
    """The pre-vectorisation dedup (set of tuples, a Python loop per pair)."""
    seen = set()
    lefts, rights = [], []
    for table in index.tables:
        left, right = table.collision_pairs_arrays()
        for u, v in zip(left.tolist(), right.tolist()):
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            lefts.append(key[0])
            rights.append(key[1])
    return np.asarray(lefts, dtype=np.int64), np.asarray(rights, dtype=np.int64)


def test_virtual_pair_dedup_speedup(benchmark, dblp_multi_index, results_dir):
    index = dblp_multi_index

    def run():
        start = time.perf_counter()
        legacy_left, legacy_right = _legacy_virtual_pairs(index)
        legacy_seconds = time.perf_counter() - start
        start = time.perf_counter()
        left, right = index.virtual_collision_pairs()
        packed_seconds = time.perf_counter() - start
        return legacy_left, legacy_right, legacy_seconds, left, right, packed_seconds

    legacy_left, legacy_right, legacy_seconds, left, right, packed_seconds = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )

    # identical pair sets (the packed path returns them key-sorted)
    legacy_sorted = sorted(zip(legacy_left.tolist(), legacy_right.tolist()))
    packed_sorted = list(zip(left.tolist(), right.tolist()))
    assert packed_sorted == legacy_sorted

    speedup = legacy_seconds / max(packed_seconds, 1e-9)
    rows = [
        ["set of tuples (legacy)", legacy_seconds * 1000.0, 1.0],
        ["packed int64 + np.unique", packed_seconds * 1000.0, speedup],
    ]
    emit(
        "E14_virtual_pair_dedup",
        f"Virtual-bucket dedup — {left.size} unique pairs over "
        f"{len(index)} tables (n={index.collection.size})",
        format_table(["strategy", "runtime (ms)", "speedup"], rows, float_format="{:.2f}"),
        results_dir,
        benchmark=benchmark,
        extra_info={"num_pairs": int(left.size), "speedup": speedup},
    )
