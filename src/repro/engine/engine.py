"""The engine front door: one lifecycle over every deployment shape.

:class:`JoinEstimationEngine` is the seam callers program against.  A
declarative :class:`~repro.engine.config.EngineConfig` picks the backend
(static batch index, single-node streaming, an in-process sharded
cluster, or shard worker processes); the lifecycle is always the same::

    engine = JoinEstimationEngine(config).open()
    engine.ingest(collection_or_events)
    result = engine.estimate(EstimateRequest(threshold=0.8))
    engine.snapshot("cluster.pkl")
    engine.close()

Estimates come back as :class:`EstimateResult` envelopes that carry the
raw :class:`~repro.core.base.Estimate` payload plus :class:`Provenance`
(backend kind, strata sizes, shard layout, staleness, wall time, the
resolved per-call seed) — enough to audit *which* deployment served a
number and reproduce it bit-for-bit.

Determinism contract: for equal configs and ingest, an engine estimate
equals the estimate of the hand-built underlying stack (index seeded
``config.seed + 1``, maintenance generator ``config.seed + 2``) called
with the same per-request seed.  The facade adds provenance, never
arithmetic — gated at ≤ 5 % overhead in ``benchmarks/bench_engine.py``.
"""

from __future__ import annotations

import dataclasses
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Mapping, Optional, Union

from repro.engine.backends import EstimatorBackend, resolve_backend
from repro.engine.config import EngineConfig
from repro.errors import IndexNotBuiltError, ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import trace
from repro.shard import PendingWrites
from repro.shard.rebalance import RebalancePlan
from repro.state import StateSpec
from repro.streaming.events import ChangeLog, Checkpoint, Delete, Insert
from repro.vectors import VectorCollection

_EVENT_TYPES = (Insert, Delete, Checkpoint)

_BUNDLE_STATE = StateSpec(
    "an engine snapshot", {"config": Mapping, "backend": Mapping}, kind="engine-snapshot"
)


@dataclass(frozen=True)
class EstimateRequest:
    """One estimation call, as data (dict/JSON round-trippable).

    Parameters
    ----------
    threshold:
        Similarity threshold ``τ`` in ``(0, 1]``.
    mode:
        Serving path: ``"auto"`` and ``"exact"`` everywhere, and
        ``"reservoir"`` on the mutable backends (streaming, sharded,
        process).  Backends reject modes they do not serve.
    seed:
        Per-call rng seed; ``None`` falls back to the engine config's
        root seed.
    estimator:
        Estimator flavor for multi-estimator backends (the static
        backend serves ``lsh-ss`` / ``lsh-s`` / ``ju`` / ``lc`` / ``rs``
        …); single-estimator backends reject non-``None`` values.
    """

    threshold: float
    mode: str = "auto"
    seed: Optional[int] = None
    estimator: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "threshold": self.threshold,
            "mode": self.mode,
            "seed": self.seed,
            "estimator": self.estimator,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EstimateRequest":
        unknown = sorted(set(payload) - {"threshold", "mode", "seed", "estimator"})
        if unknown:
            raise ValidationError(f"unknown request field(s) {unknown}")
        if "threshold" not in payload:
            raise ValidationError("an estimate request needs a 'threshold'")
        return cls(**dict(payload))


@dataclass(frozen=True)
class Provenance:
    """Where an estimate came from and what the backend looked like.

    ``backend``/``backend_details`` identify the deployment shape (the
    details dict carries backend-specific facts: strata sizes always;
    shard count/sizes and pending writes for clusters;
    reservoir staleness for mutable backends).  ``seed`` is the resolved
    per-call seed — replaying the same request against the same state
    with this seed reproduces the value bit-for-bit.
    """

    backend: str
    seed: int
    mode: str
    wall_time_seconds: float
    backend_details: Dict[str, Any] = field(default_factory=dict)
    #: the serving engine's :meth:`MetricsSnapshot.to_dict` at reply
    #: time — counters/latencies accumulated up to and including this
    #: estimate (empty when the serving path carries no engine)
    metrics: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "backend": self.backend,
            "seed": self.seed,
            "mode": self.mode,
            "wall_time_seconds": self.wall_time_seconds,
            "backend_details": dict(self.backend_details),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Provenance":
        return cls(
            backend=payload["backend"],
            seed=payload["seed"],
            mode=payload["mode"],
            wall_time_seconds=payload["wall_time_seconds"],
            backend_details=dict(payload.get("backend_details", {})),
            metrics=dict(payload.get("metrics", {})),
        )


@dataclass(frozen=True)
class EstimateResult:
    """An :class:`~repro.core.base.Estimate` plus its :class:`Provenance`."""

    value: float
    estimator: str
    threshold: float
    details: Dict[str, Any]
    provenance: Provenance

    def __float__(self) -> float:
        return float(self.value)

    def relative_error(self, true_size: float) -> float:
        """Signed relative error against a known true join size."""
        from repro.core.base import Estimate

        return Estimate(self.value, self.estimator, self.threshold).relative_error(true_size)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "value": self.value,
            "estimator": self.estimator,
            "threshold": self.threshold,
            "details": dict(self.details),
            "provenance": self.provenance.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EstimateResult":
        """Rebuild a result from :meth:`to_dict` output (the serve wire)."""
        return cls(
            value=payload["value"],
            estimator=payload["estimator"],
            threshold=payload["threshold"],
            details=dict(payload.get("details", {})),
            provenance=Provenance.from_dict(payload["provenance"]),
        )


class JoinEstimationEngine:
    """One front-door API over static, streaming, and sharded backends.

    Construct from an :class:`EngineConfig` (or a plain dict / JSON file
    path), then drive the lifecycle: :meth:`open`, :meth:`ingest`,
    :meth:`estimate`, :meth:`snapshot` / :meth:`restore`,
    :meth:`rebalance` (sharded only), :meth:`close`.  Usable as a
    context manager (``with JoinEstimationEngine(cfg) as engine: …``).
    """

    def __init__(
        self,
        config: Union[EngineConfig, Mapping[str, Any], str, Path],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = EngineConfig.coerce(config)
        #: this engine's metrics registry — fresh per engine by default,
        #: so two engines in one process never mix their counters; pass
        #: a shared registry (e.g. the process-global one) to pool them.
        #: The backend is built with it, so every layer underneath
        #: records here too.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._backend: Optional[EstimatorBackend] = None
        self._closed = False
        # handles cached up front: the per-call hot path never touches
        # the registry lock
        self._estimate_seconds = self.metrics.histogram("engine_estimate_seconds")
        self._estimates_total = self.metrics.counter("engine_estimates_total")
        self._ingest_seconds = self.metrics.histogram("engine_ingest_seconds")
        self._ingested_total = self.metrics.counter("engine_ingested_events_total")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._backend is not None and not self._closed

    @property
    def backend(self) -> EstimatorBackend:
        """The live backend (advanced callers; raises unless open)."""
        if not self.is_open:
            raise IndexNotBuiltError(
                "engine is not open; call open() (or restore()) first"
            )
        return self._backend

    def open(self) -> "JoinEstimationEngine":
        """Build the configured backend; returns ``self`` for chaining."""
        if self._backend is not None and not self._closed:
            raise ValidationError("engine is already open")
        with trace("engine.open", backend=self.config.backend):
            backend = resolve_backend(self.config.backend)(self.config, metrics=self.metrics)
            backend.open()
        self._backend = backend
        self._closed = False
        return self

    def close(self) -> None:
        """Release backend resources; idempotent.

        The engine counts as closed even when the backend's ``close``
        raises (the error still propagates to the caller *once*): a
        second :meth:`close` is a no-op instead of re-raising, so
        cleanup paths that close defensively cannot mask the original
        failure with a repeat of it.
        """
        if self._backend is not None and not self._closed:
            try:
                with trace("engine.close", backend=self.config.backend):
                    self._backend.close()
            finally:
                self._closed = True

    def __enter__(self) -> "JoinEstimationEngine":
        if not self.is_open:
            self.open()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            self.close()
        except Exception as close_error:  # reprolint: disable=R007 - chained into the already-propagating exception below, never swallowed
            if exc_type is None:
                raise
            # an exception is already leaving the with-body: keep it
            # primary and chain the close-time failure into its context
            # instead of letting the close error mask the root cause
            close_error.__context__ = exc.__context__
            exc.__context__ = close_error

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------
    def ingest(
        self,
        source: Union[VectorCollection, ChangeLog, Iterable[object], Insert, Delete, Checkpoint],
    ) -> int:
        """Feed vectors or change events into the backend.

        Accepts a :class:`VectorCollection` (bulk load), a single event,
        a :class:`ChangeLog`, or any iterable of events.  Returns the
        number of mutations applied (checkpoints count zero).
        """
        backend = self.backend
        started = time.perf_counter()
        with trace("engine.ingest", backend=backend.kind):
            if isinstance(source, VectorCollection):
                applied = backend.ingest_collection(source)
            elif isinstance(source, _EVENT_TYPES):
                applied = backend.apply_event(source)
            elif isinstance(source, (ChangeLog, Iterable)):
                applied = 0
                for event in source:
                    applied += backend.apply_event(event)
            else:
                raise ValidationError(
                    f"cannot ingest {type(source).__name__}; expected a "
                    "VectorCollection, a change event, or an iterable of events"
                )
        self._ingest_seconds.observe(time.perf_counter() - started)
        self._ingested_total.inc(applied)
        return applied

    def flush(self) -> None:
        """Make buffered writes visible (no-op for unbuffered backends)."""
        self.backend.flush()

    def quiesce(self) -> None:
        """Run deferred backend maintenance so estimates are read-only.

        The serving layer calls this after :meth:`flush` at epoch-commit
        time, before publishing the engine to concurrent readers; see
        :meth:`EstimatorBackend.quiesce`.
        """
        self.backend.quiesce()

    def drain_pending(self) -> PendingWrites:
        """Recover buffered-but-unapplied writes; see backend docs.

        Used by shutdown paths that must not lose writes behind a failed
        commit: drain first, close quietly, surface the rows and delete
        ids in a :class:`~repro.errors.StrandedWritesError`.
        """
        return self.backend.drain_pending()

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        request: Union[EstimateRequest, Mapping[str, Any], float, None] = None,
        *,
        threshold: Optional[float] = None,
        mode: Optional[str] = None,
        seed: Optional[int] = None,
        estimator: Optional[str] = None,
    ) -> EstimateResult:
        """Serve one estimate (request object, dict, or bare threshold).

        ``engine.estimate(0.8)``, ``engine.estimate(threshold=0.8,
        mode="exact")`` and ``engine.estimate(EstimateRequest(0.8,
        mode="exact"))`` are equivalent spellings; keyword arguments
        given *alongside* a request object/dict override its fields.
        """
        if isinstance(request, (int, float)) and not isinstance(request, bool):
            if threshold is not None:
                raise ValidationError("threshold given both positionally and by keyword")
            threshold = float(request)
            request = None
        elif isinstance(request, Mapping):
            payload = dict(request)
            if "threshold" not in payload and threshold is not None:
                payload["threshold"] = threshold
                threshold = None
            request = EstimateRequest.from_dict(payload)
        elif request is not None and not isinstance(request, EstimateRequest):
            raise ValidationError(
                f"cannot estimate from {type(request).__name__}; expected an "
                "EstimateRequest, a mapping, or a threshold"
            )
        if request is None:
            if threshold is None:
                raise ValidationError("an estimate needs a threshold")
            request = EstimateRequest(threshold)
        # explicit keywords win over the request envelope's fields
        overrides: Dict[str, Any] = {}
        if threshold is not None and request.threshold != threshold:
            overrides["threshold"] = threshold
        if mode is not None:
            overrides["mode"] = mode
        if seed is not None:
            overrides["seed"] = seed
        if estimator is not None:
            overrides["estimator"] = estimator
        if overrides:
            request = dataclasses.replace(request, **overrides)
        backend = self.backend
        resolved_seed = self.config.seed if request.seed is None else int(request.seed)
        started = time.perf_counter()
        with trace(
            "engine.estimate",
            backend=backend.kind,
            mode=request.mode,
            threshold=request.threshold,
        ):
            estimate = backend.estimate(
                request.threshold,
                mode=request.mode,
                random_state=resolved_seed,
                estimator=request.estimator,
            )
        wall_time = time.perf_counter() - started
        self._estimate_seconds.observe(wall_time)
        self._estimates_total.inc()
        return EstimateResult(
            value=estimate.value,
            estimator=estimate.estimator,
            threshold=estimate.threshold,
            details=estimate.details,
            provenance=Provenance(
                backend=backend.kind,
                seed=resolved_seed,
                mode=request.mode,
                wall_time_seconds=wall_time,
                backend_details=backend.describe(),
                metrics=self.metrics.snapshot().to_dict(),
            ),
        )

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self, path: Union[str, Path]) -> None:
        """Write config + backend state as one restorable bundle."""
        with trace("engine.snapshot", backend=self.config.backend):
            state = _BUNDLE_STATE.dump(
                config=self.config.to_dict(), backend=self.backend.to_state()
            )
            with open(path, "wb") as handle:
                pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(
        cls,
        path: Union[str, Path],
        *,
        config: Union[EngineConfig, Mapping[str, Any], str, Path, None] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "JoinEstimationEngine":
        """Revive an engine from :meth:`snapshot` output.

        Only engine bundles are accepted: a bare index state holds its
        hash family but no engine config (backend kind, options, seed) to
        reopen it with.  Passing ``config`` overrides the embedded one —
        its backend kind must match the snapshot's, and on the mutable
        backends its ``num_hashes`` and ``dimension`` must match the
        restored index's.
        """
        path = Path(path)
        if not path.is_file():
            raise ValidationError(f"engine snapshot not found: {path}")
        with open(path, "rb") as handle:
            state = pickle.load(handle)  # reprolint: disable=R005 - operator-supplied local snapshot file, same trust domain as the process
        _BUNDLE_STATE.check(state)
        snapshot_config = EngineConfig.from_dict(state["config"])
        backend_state = state["backend"]
        if config is not None:
            config = EngineConfig.coerce(config)
            if config.backend != snapshot_config.backend:
                raise ValidationError(
                    f"config backend {config.backend!r} does not match the "
                    f"snapshot's {snapshot_config.backend!r}"
                )
        else:
            config = snapshot_config
        engine = cls(config, metrics=metrics)
        with trace("engine.open", backend=config.backend, restored=True):
            engine._backend = resolve_backend(config.backend).from_state(
                config, backend_state, metrics=engine.metrics
            )
        engine._closed = False
        return engine

    # ------------------------------------------------------------------
    # rebalancing
    # ------------------------------------------------------------------
    def rebalance(
        self,
        *,
        num_shards: Optional[int] = None,
        dry_run: bool = False,
    ) -> RebalancePlan:
        """Resize a sharded backend to ``num_shards`` (others raise).

        Returns the executed (or, with ``dry_run``, the proposed)
        :class:`~repro.shard.rebalance.RebalancePlan`.  An applied
        rebalance updates :attr:`config` to the adopted shard count, so
        snapshots taken afterwards describe reality.
        """
        with trace("engine.rebalance", backend=self.config.backend, dry_run=dry_run):
            plan = self.backend.rebalance(num_shards=num_shards, dry_run=dry_run)
        self.config = self.backend.config  # adopt any rebalance-driven update
        return plan

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live vectors in the backend."""
        return self.backend.size

    @property
    def total_pairs(self) -> int:
        """Candidate pairs ``M = C(n, 2)``."""
        return self.backend.total_pairs

    def describe(self) -> Dict[str, Any]:
        """Config plus the backend's live provenance fields."""
        description = {"config": self.config.to_dict()}
        if self.is_open:
            description["backend"] = self.backend.describe()
        return description

    def stats(self) -> Dict[str, Any]:
        """Operational statistics: config + the backend's stats surface.

        Delegates to :meth:`EstimatorBackend.stats`, so a process-cluster
        engine returns per-worker rows and a snapshot merged across every
        worker registry; a closed engine still reports its own registry.
        """
        stats: Dict[str, Any] = {"config": self.config.to_dict()}
        if self.is_open:
            stats.update(self.backend.stats())
        else:
            stats["backend"] = self.config.backend
            stats["metrics"] = self.metrics.snapshot().to_dict()
        return stats

    def __repr__(self) -> str:  # pragma: no cover - trivial
        status = "open" if self.is_open else "closed"
        return f"JoinEstimationEngine(backend={self.config.backend!r}, {status})"


__all__ = ["EstimateRequest", "EstimateResult", "Provenance", "JoinEstimationEngine"]
