"""Low-overhead metrics: counters, gauges, fixed-bucket latency histograms.

A :class:`MetricsRegistry` hands out named instruments (optionally
labelled, e.g. ``registry.counter("cluster.round_trips", op="stats")``)
and snapshots the whole collection into plain dicts — JSON-safe,
mergeable, and restorable.  Everything is built for hot paths:

* instrument handles are plain objects cached by their construction
  site, so an increment is one attribute add (no registry lookup);
* a histogram observation is one :func:`bisect.bisect_right` into a
  fixed bound list plus an increment of a numpy ``int64`` counts cell —
  no allocation, no lock;
* the process-wide :mod:`repro.obs._state` switch makes every operation
  an early return when observability is off.

Thread-safety is "lock-cheap" by design: increments are not atomic
across threads, but each is a single bytecode-level add on a
GIL-protected object, so concurrent writers can at worst lose an
occasional sample — acceptable for operational telemetry, and the price
of keeping the estimate path inside the ≤ 3 % overhead gate.  Snapshots
are similarly relaxed (they read live values without stopping writers).

Merging is associative and commutative: counters and gauges add,
histogram bucket counts add element-wise (merging histograms with
different bounds raises).  That is what lets the cluster coordinator
fold per-worker registries into one view in any gather order.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.obs import _state

#: default latency bounds (seconds): 100 µs … 10 s, roughly log-spaced.
#: One overflow bucket beyond the last bound catches the tail.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Mapping[str, Any]) -> LabelsKey:
    """Canonical (sorted, stringified) form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def format_metric_name(name: str, labels: Any = ()) -> str:
    """``name{a=1,b=x}`` — the human-readable form used by ``repro stats``.

    Accepts either a mapping or the canonical tuple-of-pairs form.
    """
    if isinstance(labels, Mapping):
        labels = _labels_key(labels)
    if not labels:
        return name
    return name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


class Counter:
    """A monotonically increasing sum (floats allowed: e.g. seconds, bytes)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if _state.enabled:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Counter({format_metric_name(self.name, self.labels)}={self._value})"


class Gauge:
    """A value that goes up and down (queue depth, pending writes, …)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelsKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        if _state.enabled:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        if _state.enabled:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        if _state.enabled:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"Gauge({format_metric_name(self.name, self.labels)}={self._value})"


class Histogram:
    """Fixed-bucket histogram (cumulative count/sum + per-bucket counts).

    ``bounds`` are the inclusive upper edges of the first ``len(bounds)``
    buckets; one implicit overflow bucket catches everything beyond the
    last bound.  Counts live in a numpy ``int64`` array so merge and
    snapshot are vector operations.
    """

    __slots__ = ("name", "labels", "bounds", "_bounds_list", "_counts", "_sum", "_count")

    def __init__(
        self,
        name: str,
        labels: LabelsKey = (),
        *,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValidationError("a histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValidationError(f"histogram bounds must be strictly increasing: {bounds}")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self._bounds_list = list(bounds)  # bisect is fastest on a plain list
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        if not _state.enabled:
            return
        self._counts[bisect_right(self._bounds_list, value)] += 1
        self._sum += value
        self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def bucket_counts(self) -> Tuple[int, ...]:
        return tuple(int(c) for c in self._counts)

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the q-bucket)."""
        return histogram_quantile(self.bounds, self._counts, q)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Histogram({format_metric_name(self.name, self.labels)}: "
            f"count={self._count}, sum={self._sum:.6f})"
        )


def histogram_quantile(
    bounds: Tuple[float, ...], counts: np.ndarray, q: float
) -> float:
    """Shared quantile logic for live histograms and snapshot dicts.

    Returns the upper bound of the bucket containing the ``q``-th sample
    (the overflow bucket reports the last finite bound — a floor, not an
    estimate).  An empty histogram reports 0.0.
    """
    if not 0.0 <= q <= 1.0:
        raise ValidationError(f"quantile must be in [0, 1], got {q}")
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total == 0:
        return 0.0
    rank = max(1, int(np.ceil(q * total)))
    cumulative = np.cumsum(counts)
    bucket = int(np.searchsorted(cumulative, rank))
    return float(bounds[min(bucket, len(bounds) - 1)])


class MetricsSnapshot:
    """A registry's contents as plain data: JSON-safe, mergeable, restorable.

    The dict layout (``to_dict``)::

        {"format": 1,
         "counters":   [{"name": ..., "labels": {...}, "value": ...}, ...],
         "gauges":     [{"name": ..., "labels": {...}, "value": ...}, ...],
         "histograms": [{"name": ..., "labels": {...}, "buckets": [...],
                         "counts": [...], "sum": ..., "count": ...}, ...]}

    :meth:`merge` is associative and commutative (counters/gauges add,
    histogram counts add element-wise), so folding any number of
    per-worker snapshots into one view gives the same answer in any
    order — property-tested in ``tests/test_obs.py``.
    """

    def __init__(self, payload: Mapping[str, Any]) -> None:
        if payload.get("format") != 1:
            raise ValidationError(
                f"unsupported metrics snapshot format {payload.get('format')!r}"
            )
        self._payload = {
            "format": 1,
            "counters": [dict(entry) for entry in payload.get("counters", [])],
            "gauges": [dict(entry) for entry in payload.get("gauges", [])],
            "histograms": [dict(entry) for entry in payload.get("histograms", [])],
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A deep plain-dict copy (safe to mutate, pickle, or JSON-dump)."""
        return {
            "format": 1,
            "counters": [dict(entry) for entry in self._payload["counters"]],
            "gauges": [dict(entry) for entry in self._payload["gauges"]],
            "histograms": [dict(entry) for entry in self._payload["histograms"]],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsSnapshot":
        return cls(payload)

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        return cls({"format": 1})

    # ------------------------------------------------------------------
    @staticmethod
    def _indexed(entries: List[Dict[str, Any]]) -> Dict[Tuple[str, LabelsKey], Dict[str, Any]]:
        return {(e["name"], _labels_key(e.get("labels", {}))): e for e in entries}

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """A new snapshot with ``other`` folded in (self is unchanged)."""
        merged = self.to_dict()
        other_payload = other.to_dict()
        for section, combine in (("counters", "add"), ("gauges", "add")):
            index = self._indexed(merged[section])
            for entry in other_payload[section]:
                key = (entry["name"], _labels_key(entry.get("labels", {})))
                if key in index:
                    index[key]["value"] += entry["value"]
                else:
                    merged[section].append(entry)
        index = self._indexed(merged["histograms"])
        for entry in other_payload["histograms"]:
            key = (entry["name"], _labels_key(entry.get("labels", {})))
            if key not in index:
                merged["histograms"].append(entry)
                continue
            mine = index[key]
            if list(mine["buckets"]) != list(entry["buckets"]):
                raise ValidationError(
                    f"cannot merge histogram {entry['name']!r}: bucket bounds differ "
                    f"({mine['buckets']} vs {entry['buckets']})"
                )
            mine["counts"] = [
                int(a) + int(b) for a, b in zip(mine["counts"], entry["counts"])
            ]
            mine["sum"] += entry["sum"]
            mine["count"] += entry["count"]
        return MetricsSnapshot(merged)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        p = self._payload
        return (
            f"MetricsSnapshot(counters={len(p['counters'])}, "
            f"gauges={len(p['gauges'])}, histograms={len(p['histograms'])})"
        )


class MetricsRegistry:
    """Named instruments behind one :meth:`snapshot` (snapshots merge).

    Instrument creation takes a lock (it mutates the registry dict);
    the returned handles are lock-free.  Call sites on hot paths should
    create their instruments once and keep the handle.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: Dict[Tuple[str, str, LabelsKey], Any] = {}

    # ------------------------------------------------------------------
    def _get(
        self, kind: str, name: str, labels: Mapping[str, Any], factory: Any
    ) -> Any:
        key = (kind, name, _labels_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            with self._lock:
                instrument = self._instruments.get(key)
                if instrument is None:
                    instrument = factory(name, key[2])
                    self._instruments[key] = instrument
        return instrument

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get("counter", name, labels, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, Gauge)

    def histogram(
        self,
        name: str,
        *,
        buckets: Optional[Iterable[float]] = None,
        **labels: Any,
    ) -> Histogram:
        bounds = DEFAULT_LATENCY_BUCKETS if buckets is None else tuple(buckets)
        return self._get(
            "histogram", name, labels,
            lambda n, lk: Histogram(n, lk, buckets=bounds),
        )

    # ------------------------------------------------------------------
    def instruments(self) -> List[Any]:
        """Live instrument handles, in creation order."""
        return list(self._instruments.values())

    def clear(self) -> None:
        """Drop every instrument (fresh handles must be re-created)."""
        with self._lock:
            self._instruments.clear()

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        """The current values as a :class:`MetricsSnapshot`."""
        counters, gauges, histograms = [], [], []
        for (kind, name, labels), instrument in list(self._instruments.items()):
            entry: Dict[str, Any] = {"name": name, "labels": dict(labels)}
            if kind == "counter":
                entry["value"] = instrument.value
                counters.append(entry)
            elif kind == "gauge":
                entry["value"] = instrument.value
                gauges.append(entry)
            else:
                entry.update(
                    buckets=[float(b) for b in instrument.bounds],
                    counts=[int(c) for c in instrument._counts],
                    sum=float(instrument._sum),
                    count=int(instrument._count),
                )
                histograms.append(entry)
        return MetricsSnapshot(
            {"format": 1, "counters": counters, "gauges": gauges, "histograms": histograms}
        )

    def to_dict(self) -> Dict[str, Any]:
        return self.snapshot().to_dict()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"MetricsRegistry(instruments={len(self._instruments)})"


# ----------------------------------------------------------------------
# the process-global default registry
# ----------------------------------------------------------------------
_global_registry = MetricsRegistry()


def get_global_registry() -> MetricsRegistry:
    """The process-wide default registry (library code not bound to an engine)."""
    return _global_registry


def set_global_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry; returns the previous one.

    Note: instrument handles cached by already-constructed objects keep
    recording to the registry they were created from.
    """
    global _global_registry
    previous = _global_registry
    _global_registry = registry
    return previous


__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "format_metric_name",
    "histogram_quantile",
    "get_global_registry",
    "set_global_registry",
]
