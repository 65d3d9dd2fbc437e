"""Estimator parity grid: every LSH-SS variant, fingerprinted for diffing.

Runs each estimator/mode variant over τ ∈ {0.2, 0.5, 0.9} and seeds
0–9 (one variant passes one generator per seed through all three τ in
turn; every other one seeds each estimate) and records the estimate value, its details, and fingerprints of raw
SampleH / SampleL draws (64 pairs each) from every pair-sampling holder.
Two runs of this script — one per source tree — must agree exactly when
a change is meant to be behaviour-preserving:

    PYTHONPATH=<parent>/src python scripts/estimate_parity.py --output parent.json
    PYTHONPATH=src python scripts/estimate_parity.py --output change.json
    python scripts/estimate_parity.py --compare parent.json change.json

``--compare A B`` prints every mismatch and exits 1 if there is any.
Values, draw fingerprints and the detail keys present on both sides
must be equal; detail keys only B has are reported as added and do not
fail the comparison; keys only A has do.

The script uses only long-standing public APIs, so it runs unchanged
against older source trees.  An importable ``repro`` on ``PYTHONPATH``
wins over this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

# fall back to this checkout's sources; PYTHONPATH entries come first
sys.path.append(str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.cluster import ClusterCoordinator  # noqa: E402
from repro.core import (  # noqa: E402
    GeneralLSHSSEstimator,
    LSHSSEstimator,
    PairedLSHTable,
    VirtualBucketEstimator,
)
from repro.datasets import make_dblp_like  # noqa: E402
from repro.lsh import LSHIndex, LSHTable, SignRandomProjectionFamily  # noqa: E402
from repro.shard import (  # noqa: E402
    ShardedMutableIndex,
    ShardedStreamingEstimator,
    ShardRouter,
    rebalance_cluster,
)
from repro.streaming import MutableLSHIndex, StreamingEstimator  # noqa: E402

THRESHOLDS = (0.2, 0.5, 0.9)
SEEDS = tuple(range(10))
NUM_VECTORS = 300
NUM_HASHES = 10
DRAW_SIZE = 64
SHARED_BUDGET_L = 10 * NUM_VECTORS


def _plain(value: Any) -> Any:
    """JSON-ready copy of a details value (numpy scalars and arrays included)."""
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_plain(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _fingerprint(left: np.ndarray, right: np.ndarray) -> str:
    """Hash of a draw's ids and dtypes: equal only for identical draws."""
    digest = hashlib.sha256()
    for side in (np.asarray(left), np.asarray(right)):
        digest.update(str(side.dtype).encode())
        digest.update(np.ascontiguousarray(side).tobytes())
    return digest.hexdigest()[:20]


def _churn(index: Any, collection: Any, seed: int) -> None:
    """Bulk-load 200 rows, then 150 seeded inserts/deletes (40% deletes)."""
    rng = np.random.default_rng(seed)
    live = [int(i) for i in index.insert_many(collection.matrix[:200])]
    for _ in range(150):
        if rng.random() < 0.4 and len(live) > 2:
            index.delete(live.pop(int(rng.integers(0, len(live)))))
        else:
            live.append(int(index.insert(collection.row(int(rng.integers(0, collection.size))))))


def _routed_churn(index: Any, collection: Any, seed: int) -> None:
    """:func:`_churn`'s events through a ``ShardRouter``, flushed every 50 events."""
    rng = np.random.default_rng(seed)
    live = [int(i) for i in index.insert_many(collection.matrix[:200])]
    next_id = max(live) + 1
    with ShardRouter(index, batch_size=256) as router:
        for step in range(150):
            if rng.random() < 0.4 and len(live) > 2:
                router.delete(live.pop(int(rng.integers(0, len(live)))))
            else:
                router.insert(collection.row(int(rng.integers(0, collection.size))))
                live.append(next_id)
                next_id += 1
            if step % 50 == 49:
                router.flush()


def _draws(sample_h: Callable[..., Any], sample_l: Callable[..., Any], seed: int) -> Dict[str, str]:
    result = {}
    for stratum, sample in (("h", sample_h), ("l", sample_l)):
        try:
            result[stratum] = _fingerprint(*sample(DRAW_SIZE, np.random.default_rng(seed)))
        except Exception as error:  # noqa: BLE001 - a failure is a parity datum too
            result[stratum] = f"error: {type(error).__name__}"
    return result


def _index_samplers(holder: Any) -> Tuple[Callable[..., Any], Callable[..., Any]]:
    return (
        lambda size, rng: holder.sample_collision_pairs(size, random_state=rng),
        lambda size, rng: holder.sample_non_collision_pairs(size, random_state=rng),
    )


def _shared_generator_estimates(table: Any) -> Callable[[float, int], Any]:
    """Static LSH-SS estimates that share one generator per seed across every τ.

    The grid calls it with τ = 0.2, 0.5, 0.9 in turn for each seed, so a
    draw one estimate leaves behind shifts every later one; the
    generator's state after each estimate is recorded too, so that an
    over-draw by the last estimate also shows.  SampleL's budget is
    ``SHARED_BUDGET_L`` pairs, many draws of its batch size, so that a
    run can stop anywhere in a long pair stream.
    """
    generators: Dict[int, np.random.Generator] = {}
    estimator = LSHSSEstimator(table, sample_size_l=SHARED_BUDGET_L)

    def estimate(threshold: float, seed: int) -> Any:
        rng = generators.setdefault(seed, np.random.default_rng(seed))
        result = estimator.estimate(threshold, random_state=rng)
        result.details["generator_state"] = repr(rng.bit_generator.state)
        return result

    return estimate


def run_grid(seeds: Sequence[int] = SEEDS) -> Dict[str, Any]:
    """The whole grid as one JSON-ready dict: ``{"estimates": …, "draws": …}``."""
    collection = make_dblp_like(num_vectors=NUM_VECTORS, random_state=3).collection
    family = SignRandomProjectionFamily(NUM_HASHES, random_state=17)
    table = LSHTable(family, collection)
    multi = LSHIndex(collection, num_hashes=NUM_HASHES, num_tables=3, random_state=19)
    virtual = VirtualBucketEstimator(multi)
    half = collection.size // 2
    paired = PairedLSHTable(
        family, collection.subset(list(range(half))),
        collection.subset(list(range(half, collection.size))),
    )

    streaming = MutableLSHIndex(collection.dimension, num_hashes=NUM_HASHES, random_state=8)
    stream_estimator = StreamingEstimator(streaming, reservoir_size=128, random_state=9)
    _churn(streaming, collection, seed=5)

    sharded = ShardedMutableIndex(
        collection.dimension, num_shards=3, num_hashes=NUM_HASHES, random_state=8,
    )
    facade_estimator = StreamingEstimator(sharded, reservoir_size=128, random_state=9)
    _churn(sharded, collection, seed=5)

    # the same churn, then a migration onto 4 shards: rows move, answers must not
    rebalanced = ShardedMutableIndex(
        collection.dimension, num_shards=3, num_hashes=NUM_HASHES, random_state=8,
    )
    _churn(rebalanced, collection, seed=5)
    rebalance_cluster(rebalanced, num_shards=4)

    # (name, estimate(τ, seed)) in a fixed order: stateful modes repair
    # reservoirs as they go, so the order is part of the contract
    variants: List[Tuple[str, Callable[[float, int], Any]]] = [
        ("static-lsh-ss", lambda t, s: LSHSSEstimator(table).estimate(t, random_state=s)),
        ("static-lsh-ss-d", lambda t, s: LSHSSEstimator(table, dampening="auto").estimate(
            t, random_state=s)),
        ("static-lsh-ss-shared-generator", _shared_generator_estimates(table)),
        ("virtual-l3", lambda t, s: virtual.estimate(t, random_state=s)),
        ("general-join", lambda t, s: GeneralLSHSSEstimator(paired).estimate(t, random_state=s)),
    ]
    for mode in ("exact", "auto", "reservoir"):
        variants.append((f"streaming-{mode}", lambda t, s, m=mode: stream_estimator.estimate(
            t, random_state=s, mode=m)))
    merged = ShardedStreamingEstimator(sharded)
    variants.append(("sharded3-exact", lambda t, s: merged.estimate(
        t, random_state=s, mode="exact")))
    variants.append(("sharded3-facade-auto", lambda t, s: facade_estimator.estimate(
        t, random_state=s, mode="auto")))
    migrated = ShardedStreamingEstimator(rebalanced)
    variants.append(("sharded3-rebalanced-exact", lambda t, s: migrated.estimate(
        t, random_state=s, mode="exact")))

    # the same churn through the router's buffered write path
    routed = ShardedMutableIndex(
        collection.dimension, num_shards=3, num_hashes=NUM_HASHES, random_state=8,
    )
    routed_facade = StreamingEstimator(routed, reservoir_size=128, random_state=9)
    _routed_churn(routed, collection, seed=5)
    routed_merged = ShardedStreamingEstimator(routed)
    variants.append(("sharded3-router-exact", lambda t, s: routed_merged.estimate(
        t, random_state=s, mode="exact")))
    variants.append(("sharded3-router-auto", lambda t, s: routed_facade.estimate(
        t, random_state=s, mode="auto")))

    holders: List[Tuple[str, Tuple[Callable[..., Any], Callable[..., Any]]]] = [
        ("LSHTable", _index_samplers(table)),
        ("MutableLSHIndex", _index_samplers(streaming)),
        ("ShardedMutableIndex", _index_samplers(sharded)),
        ("PairedLSHTable", _index_samplers(paired)),
        ("virtual-source", (virtual._sample_virtual_h, virtual._sample_virtual_l)),
    ]

    clusters = [
        ClusterCoordinator(
            collection.dimension, num_shards=2, num_hashes=NUM_HASHES, random_state=8,
            request_timeout=60.0,
        )
        for _ in range(2)
    ]
    cluster, routed_cluster = clusters
    try:
        cluster_facade = StreamingEstimator(cluster, reservoir_size=128, random_state=9)
        _churn(cluster, collection, seed=5)
        remote = ShardedStreamingEstimator(cluster)
        variants.append(("process2-exact", lambda t, s: remote.estimate(
            t, random_state=s, mode="exact")))
        variants.append(("process2-facade-auto", lambda t, s: cluster_facade.estimate(
            t, random_state=s, mode="auto")))
        holders.append(("ClusterCoordinator", _index_samplers(cluster)))
        routed_cluster_facade = StreamingEstimator(
            routed_cluster, reservoir_size=128, random_state=9
        )
        _routed_churn(routed_cluster, collection, seed=5)
        routed_remote = ShardedStreamingEstimator(routed_cluster)
        variants.append(("process2-router-exact", lambda t, s: routed_remote.estimate(
            t, random_state=s, mode="exact")))
        variants.append(("process2-router-auto", lambda t, s: routed_cluster_facade.estimate(
            t, random_state=s, mode="auto")))

        estimates: Dict[str, Any] = {}
        for name, estimate in variants:
            per_variant = estimates[name] = {}
            for threshold in THRESHOLDS:
                per_threshold = per_variant[repr(float(threshold))] = {}
                for seed in seeds:
                    try:
                        result = estimate(threshold, seed)
                        entry = {"value": float(result.value), "details": _plain(result.details)}
                    except Exception as error:  # noqa: BLE001 - a failure is a parity datum too
                        entry = {"error": type(error).__name__}
                    per_threshold[str(seed)] = entry
        draws = {
            name: {str(seed): _draws(sample_h, sample_l, seed) for seed in seeds}
            for name, (sample_h, sample_l) in holders
        }
    finally:
        for each in clusters:
            each.close()
    return {"estimates": estimates, "draws": draws}


def compare(base: Dict[str, Any], head: Dict[str, Any]) -> Tuple[List[str], List[str]]:
    """``(mismatches, added detail keys)`` of ``head`` against ``base``."""
    mismatches: List[str] = []
    added: List[str] = []

    def walk(path: str, a: Any, b: Any, details: bool) -> None:
        if isinstance(a, dict) and isinstance(b, dict):
            for key in a:
                if key not in b:
                    mismatches.append(f"{path}/{key}: missing in B")
            for key in b:
                if key in a:
                    walk(f"{path}/{key}", a[key], b[key], details or key == "details")
                elif details:
                    added.append(f"{path}/{key}")
                else:
                    mismatches.append(f"{path}/{key}: only in B")
        elif a != b:
            mismatches.append(f"{path}: {a!r} != {b!r}")

    walk("", base, head, False)
    return mismatches, added


def _main(argv: Iterable[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", default="-", help="JSON output path (default: stdout)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="diff two outputs instead of running the grid")
    args = parser.parse_args(list(argv))
    if args.compare:
        loaded = [json.loads(Path(path).read_text(encoding="utf-8")) for path in args.compare]
        mismatches, added = compare(*loaded)
        for key in added:
            print(f"added detail key {key}")
        for line in mismatches:
            print(f"MISMATCH {line}")
        print(f"{len(mismatches)} mismatch(es), {len(added)} added detail key(s)")
        return 1 if mismatches else 0
    text = json.dumps(run_grid(), indent=1, sort_keys=True)
    if args.output == "-":
        print(text)
    else:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
