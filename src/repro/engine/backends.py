"""Estimation backends: one protocol, four declared implementations.

A backend owns one deployment shape of the LSH-SS machinery and adapts
it to the engine lifecycle (``open`` / ingest / ``estimate`` /
``to_state`` / ``close``).  The engine serves exactly four kinds, named
by ``EngineConfig.backend`` and looked up by :func:`resolve_backend`:

* ``static`` — :class:`~repro.lsh.index.LSHIndex` (one table) over an
  immutable collection, serving any of the paper's estimators (LSH-SS,
  LSH-S, JU, LC, RS, …) selected per request;
* ``streaming`` — :class:`~repro.streaming.mutable_index.MutableLSHIndex`
  + :class:`~repro.streaming.estimator.StreamingEstimator` under
  insert/delete churn;
* ``sharded`` — :class:`~repro.shard.sharded_index.ShardedMutableIndex`
  behind a buffered :class:`~repro.shard.router.ShardRouter`, with
  online rebalancing;
* ``process`` — the multi-process cluster
  (:class:`~repro.cluster.backend.ProcessBackend`, a ``sharded``
  subclass defined in :mod:`repro.cluster`): shard worker processes
  behind a :class:`~repro.cluster.coordinator.ClusterCoordinator`.

Delegation is thin on purpose: for equal seeds, the estimate a backend
serves is **bit-identical** to constructing the underlying layers by
hand (index from ``seed + 1``, maintenance generator from ``seed + 2``,
the per-request seed passed straight through) — the facade adds
provenance, not arithmetic.
"""

from __future__ import annotations

import abc
from numbers import Integral, Real
from typing import Any, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Type

from scipy import sparse

from repro.core import (
    CrossSampling,
    Estimate,
    LatticeCountingEstimator,
    LSHSEstimator,
    LSHSSEstimator,
    RandomPairSampling,
    UniformityEstimator,
)
from repro.engine.config import EngineConfig
from repro.errors import UnsupportedOperationError, ValidationError
from repro.lsh import LSHIndex
from repro.obs.metrics import MetricsRegistry, get_global_registry
from repro.rng import RandomState
from repro.shard import (
    PendingWrites, ShardedMutableIndex, ShardedStreamingEstimator, ShardRouter,
)
from repro.shard.rebalance import RebalancePlan, plan_rebalance, rebalance_cluster
from repro.shard.sharded_index import SHARDED_STATE
from repro.state import StateSpec
from repro.streaming import Checkpoint, Delete, Insert, MutableLSHIndex, StreamingEstimator
from repro.streaming.mutable_index import restore_estimator_states
from repro.vectors import VectorCollection, coerce_row


def resolve_backend(kind: str) -> Type["EstimatorBackend"]:
    """The backend class of ``kind``, one of the four the engine serves."""
    # late import: ProcessBackend subclasses ShardedBackend below
    from repro.cluster.backend import ProcessBackend

    backends: Dict[str, Type[EstimatorBackend]] = {
        "static": StaticBackend,
        "streaming": StreamingBackend,
        "sharded": ShardedBackend,
        "process": ProcessBackend,
    }
    try:
        return backends[kind]
    except KeyError as error:
        raise ValidationError(
            f"unknown backend kind {kind!r}; expected one of {sorted(backends)}"
        ) from error


#: option value types shared by the mutable backends' estimator knobs
#: (their ranges are checked where the estimator takes them)
_COUNT_OR_DEFAULT = (Integral, type(None))
_ESTIMATOR_OPTIONS: Dict[str, Tuple[type, ...]] = {
    "sample_size_h": _COUNT_OR_DEFAULT,
    "sample_size_l": _COUNT_OR_DEFAULT,
    "answer_threshold": _COUNT_OR_DEFAULT,
    "dampening": (Real, str, type(None)),
}


class EstimatorBackend(abc.ABC):
    """The protocol every deployment shape implements for the engine.

    Subclasses declare their ``kind``, ``OPTIONS`` (the
    ``EngineConfig.options`` keys they understand, each with the types
    its value may take — checked at config time) and
    ``CONCURRENT_READS``, and are constructed *closed*: the engine calls
    :meth:`open` exactly once before any other method.
    """

    #: the ``EngineConfig.backend`` value that selects this class
    kind: ClassVar[str]
    #: option key → accepted value types, for ``EngineConfig.options``
    OPTIONS: ClassVar[Mapping[str, Tuple[type, ...]]] = {}
    #: whether estimates/describes after a flush+quiesce may run from many
    #: threads at once (see :mod:`repro.serve`); False serialises them
    CONCURRENT_READS: ClassVar[bool] = True

    def __init__(self, config: EngineConfig, *, metrics: Optional[MetricsRegistry] = None) -> None:
        self.config = config
        #: the metrics registry this backend (and the layers it builds)
        #: records into: the engine's, else the process-global default
        self.metrics: MetricsRegistry = metrics if metrics is not None else get_global_registry()

    @classmethod
    def check_options(cls, options: Mapping[str, Any]) -> None:
        """Refuse an undeclared option key or a value of an undeclared type."""
        unknown = sorted(set(options) - set(cls.OPTIONS))
        if unknown:
            raise ValidationError(
                f"unknown option(s) {unknown} for backend {cls.kind!r}; "
                f"known: {sorted(cls.OPTIONS)}"
            )
        for key, value in options.items():
            types = cls.OPTIONS[key]
            if isinstance(value, bool) or not isinstance(value, types):
                expected = " or ".join(t.__name__ for t in types)
                raise ValidationError(
                    f"option {key!r} of backend {cls.kind!r} must be {expected}, got {value!r}"
                )

    # -- lifecycle -----------------------------------------------------
    @abc.abstractmethod
    def open(self) -> None:
        """Build the backing index/estimator stack (called once)."""

    def close(self) -> None:
        """Release executors / detach observers; must be idempotent."""

    def flush(self) -> None:
        """Make buffered writes visible (no-op for unbuffered backends)."""

    def quiesce(self) -> None:
        """Run deferred maintenance so subsequent estimates are read-only.

        The serving layer calls this at epoch-commit time — after
        :meth:`flush`, before publishing a generation to concurrent
        readers — so that ``auto``-mode estimates against the published
        generation neither mutate estimator state nor consume the
        maintenance rng.  The default is a no-op; backends whose
        estimates perform lazy maintenance override it.
        """

    def drain_pending(self) -> PendingWrites:
        """Recover buffered-but-unapplied writes without applying them.

        Returns the drained insert rows (1×d CSR) and delete ids, each in
        arrival order, and clears the buffer, so a close after a
        mid-commit failure can surface
        :class:`~repro.errors.StrandedWritesError` carrying the
        recoverable writes instead of losing them behind process exit.
        Unbuffered backends return two empty lists.
        """
        return PendingWrites([], [])

    # -- ingest --------------------------------------------------------
    @abc.abstractmethod
    def ingest_collection(self, collection: VectorCollection) -> int:
        """Bulk-load a collection; returns the number of vectors added."""

    @abc.abstractmethod
    def apply_event(self, event: object) -> int:
        """Apply one Insert/Delete/Checkpoint; returns mutations applied (0/1)."""

    # -- estimation ----------------------------------------------------
    @abc.abstractmethod
    def estimate(
        self,
        threshold: float,
        *,
        mode: str = "auto",
        random_state: RandomState = None,
        estimator: Optional[str] = None,
    ) -> Estimate:
        """Serve one raw :class:`~repro.core.base.Estimate`."""

    @abc.abstractmethod
    def describe(self) -> Dict[str, Any]:
        """Provenance fields (strata sizes, shard layout, staleness, …)."""

    # -- state ---------------------------------------------------------
    @abc.abstractmethod
    def to_state(self) -> Dict[str, Any]:
        """A picklable checkpoint tagged with ``{"kind": "<kind>-backend"}``."""

    @classmethod
    @abc.abstractmethod
    def from_state(
        cls,
        config: EngineConfig,
        state: Mapping[str, Any],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "EstimatorBackend":
        """Rebuild an *open* backend from :meth:`to_state` output."""

    # -- optional operations -------------------------------------------
    def rebalance(
        self,
        *,
        num_shards: Optional[int] = None,
        dry_run: bool = False,
    ) -> RebalancePlan:
        raise UnsupportedOperationError(
            f"backend {self.kind!r} does not support rebalancing "
            "(only 'sharded' clusters can migrate key ranges)"
        )

    # -- statistics ----------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Operational statistics: :meth:`describe` + a metrics snapshot.

        Backends with richer sources override this (the process backend
        fans out to its workers and merges their registries); the default
        is purely local and never blocks on I/O.
        """
        return {
            "backend": self.kind,
            "describe": self.describe(),
            "metrics": self.metrics.snapshot().to_dict(),
        }

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of live vectors."""

    @property
    @abc.abstractmethod
    def total_pairs(self) -> int:
        """Candidate pairs ``M = C(n, 2)``."""

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(kind={self.kind!r}, n={self.size})"


# ----------------------------------------------------------------------
# static
# ----------------------------------------------------------------------
class StaticBackend(EstimatorBackend):
    """Batch-built :class:`LSHIndex` over an immutable collection.

    Rows accumulate through :meth:`ingest_collection` (or insert events);
    the index and estimators are built lazily at the first estimate and
    invalidated by further ingest (a full rebuild — the static shape has
    no incremental path; that is what ``streaming`` is for).  Deletes
    raise :class:`UnsupportedOperationError`.

    Options
    -------
    ``estimator``
        Default estimator flavor served when a request names none; one
        of ``lsh-ss`` (default), ``lsh-ss-d``, ``lsh-s``, ``ju``, ``lc``,
        ``rs``, ``rs-cross``.
    ``estimator_kwargs``
        Extra constructor keywords for the served estimators
        (``sample_size_h``, ``answer_threshold``, …).
    """

    kind = "static"
    OPTIONS = {"estimator": (str,), "estimator_kwargs": (dict,)}
    STATE = StateSpec(
        "a 'static' backend snapshot",
        {"matrix": (sparse.spmatrix, type(None))},
        kind="static-backend",
    )

    #: request/estimator-name → builder(table, collection, **kwargs); the
    #: single registry of servable flavors (the CLI derives its choices
    #: and the sweep command its constructions from here)
    _ESTIMATORS = {
        "lsh-ss": lambda table, collection, **kw: LSHSSEstimator(table, **kw),
        "lsh-ss-d": lambda table, collection, **kw: LSHSSEstimator(table, dampening="auto", **kw),
        "lsh-s": lambda table, collection, **kw: LSHSEstimator(table, **kw),
        "ju": lambda table, collection, **kw: UniformityEstimator(table, **kw),
        "lc": lambda table, collection, **kw: LatticeCountingEstimator(table, **kw),
        "rs": lambda table, collection, **kw: RandomPairSampling(collection, **kw),
        "rs-cross": lambda table, collection, **kw: CrossSampling(collection, **kw),
    }

    @classmethod
    def estimator_names(cls) -> Tuple[str, ...]:
        """The estimator flavors this backend can serve, in registry order."""
        return tuple(cls._ESTIMATORS)

    @classmethod
    def _check_estimator_name(cls, name: str) -> None:
        if name not in cls._ESTIMATORS:
            raise ValidationError(
                f"unknown estimator {name!r}; expected one of {sorted(cls._ESTIMATORS)}"
            )

    @classmethod
    def check_options(cls, options: Mapping[str, Any]) -> None:
        super().check_options(options)
        if "estimator" in options:
            cls._check_estimator_name(options["estimator"])

    @classmethod
    def build_estimator(cls, name: str, table: Any, collection: Any, **kwargs: Any) -> Any:
        """Construct one named estimator flavor over a table/collection."""
        cls._check_estimator_name(name)
        try:
            return cls._ESTIMATORS[name](table, collection, **kwargs)
        except TypeError as error:
            # kwargs come from the config's estimator_kwargs: a keyword
            # (or value type) this flavor's constructor does not take
            raise ValidationError(
                f"estimator {name!r} refuses estimator_kwargs {kwargs}: {error}"
            ) from error

    def open(self) -> None:
        self._dimension: Optional[int] = self.config.dimension
        self._blocks: list = []  # csr blocks, vstacked lazily
        self._num_rows = 0
        self._index: Optional[LSHIndex] = None
        self._estimators: Dict[str, object] = {}

    def _invalidate(self) -> None:
        self._index = None
        self._estimators = {}

    def quiesce(self) -> None:
        # materialise the lazily built index now so concurrent readers
        # never race the (expensive, deterministic) first build
        if self._blocks:
            self._built_index()

    def ingest_collection(self, collection: VectorCollection) -> int:
        if self._dimension is None:
            self._dimension = collection.dimension
        elif collection.dimension != self._dimension:
            raise ValidationError(
                f"collection dimension {collection.dimension} != engine dimension {self._dimension}"
            )
        self._blocks.append(collection.matrix.tocsr())
        self._num_rows += collection.size
        self._invalidate()
        return collection.size

    def apply_event(self, event: object) -> int:
        if isinstance(event, Insert):
            if self._dimension is None:
                if hasattr(event.vector, "items"):
                    raise ValidationError(
                        "static backend needs config.dimension (or a prior "
                        "collection ingest) before sparse insert events"
                    )
                self._dimension = len(event.vector)
            self._blocks.append(coerce_row(event.vector, self._dimension))
            self._num_rows += 1
            self._invalidate()
            return 1
        if isinstance(event, Delete):
            raise UnsupportedOperationError(
                "backend 'static' is immutable: deletes need the 'streaming' "
                "or 'sharded' backend"
            )
        if isinstance(event, Checkpoint):
            return 0
        raise ValidationError(f"unknown event type: {type(event).__name__}")

    # ------------------------------------------------------------------
    def _built_index(self) -> LSHIndex:
        if self._index is None:
            if not self._blocks:
                raise ValidationError("static backend has no ingested vectors to index")
            collection = VectorCollection(sparse.vstack(self._blocks, format="csr"), copy=False)
            self._index = LSHIndex(
                collection,
                num_hashes=self.config.num_hashes,
                family=self.config.family,
                random_state=self.config.seed + 1,
            )
        return self._index

    def _estimator(self, name: Optional[str]) -> Any:
        name = name or self.config.options.get("estimator", "lsh-ss")
        if name not in self._estimators:
            index = self._built_index()
            kwargs = dict(self.config.options.get("estimator_kwargs", {}))
            self._estimators[name] = self.build_estimator(
                name, index.primary_table, index.collection, **kwargs
            )
        return self._estimators[name]

    def estimate(
        self,
        threshold: float,
        *,
        mode: str = "auto",
        random_state: RandomState = None,
        estimator: Optional[str] = None,
    ) -> Estimate:
        if mode not in ("auto", "exact"):
            raise ValidationError(
                f"backend 'static' serves modes ('auto', 'exact'), got {mode!r}"
            )
        return self._estimator(estimator).estimate(threshold, random_state=random_state)

    def describe(self) -> Dict[str, Any]:
        description: Dict[str, Any] = {
            "size": self.size,
            "total_pairs": self.total_pairs,
        }
        # strata sizes only when the index exists: describe() is a cheap
        # diagnostic and must not force (or crash on) the lazy build
        if self._index is not None:
            table = self._index.primary_table
            description["num_collision_pairs"] = table.num_collision_pairs
            description["num_non_collision_pairs"] = table.num_non_collision_pairs
        return description

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        matrix = sparse.vstack(self._blocks, format="csr") if self._blocks else None
        return self.STATE.dump(matrix=matrix)

    @classmethod
    def from_state(
        cls,
        config: EngineConfig,
        state: Mapping[str, Any],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "StaticBackend":
        cls.STATE.check(state)
        backend = cls(config, metrics=metrics)
        backend.open()
        if state["matrix"] is not None:
            backend.ingest_collection(VectorCollection(state["matrix"], copy=False))
        return backend

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        return self._num_rows

    @property
    def total_pairs(self) -> int:
        return self._num_rows * (self._num_rows - 1) // 2


# ----------------------------------------------------------------------
# streaming
# ----------------------------------------------------------------------
def _check_restore_config(config: EngineConfig, index_state: Mapping[str, Any]) -> None:
    """Refuse a restore ``config`` that contradicts a checked index state.

    A mutable backend revives its index as it was hashed, so a config
    naming another ``k`` or ``d`` would report parameters the index does
    not use (the static backend rebuilds its index from the config).
    """
    for name in ("num_hashes", "dimension"):
        if getattr(config, name) != index_state[name]:
            raise ValidationError(
                f"restore config has {name}={getattr(config, name)!r} but the "
                f"snapshot's index has {name}={index_state[name]!r}; a mutable "
                "backend keeps the index it restores"
            )


class StreamingBackend(EstimatorBackend):
    """Single-node mutable index with a reservoir-repaired estimator.

    Options
    -------
    ``reservoir_size`` / ``staleness_budget`` / ``sample_size_h`` /
    ``sample_size_l`` / ``answer_threshold`` / ``dampening``
        Passed to :class:`StreamingEstimator` verbatim.
    """

    kind = "streaming"
    OPTIONS = {
        "reservoir_size": (Integral,),
        "staleness_budget": (Real,),
        **_ESTIMATOR_OPTIONS,
    }
    STATE = StateSpec(
        "a 'streaming' backend snapshot", {"index": Mapping}, kind="streaming-backend"
    )

    def open(self) -> None:
        if self.config.dimension is None:
            raise ValidationError(
                "backend 'streaming' needs config.dimension (hash families "
                "bind to the vector space eagerly)"
            )
        self._index = MutableLSHIndex(
            self.config.dimension,
            num_hashes=self.config.num_hashes,
            family=self.config.family,
            random_state=self.config.seed + 1,
        )
        self._estimator = StreamingEstimator(
            self._index,
            random_state=self.config.seed + 2,
            **self.config.options,
        )

    def close(self) -> None:
        self._estimator.close()

    def quiesce(self) -> None:
        # run the staleness-budgeted repair now, at a known-quiescent
        # point, so auto-mode estimates stop triggering it lazily
        self._estimator.repair()

    def ingest_collection(self, collection: VectorCollection) -> int:
        self._index.insert_many(collection.matrix)
        return collection.size

    def apply_event(self, event: object) -> int:
        if isinstance(event, Insert):
            self._index.insert(event.vector)
            return 1
        if isinstance(event, Delete):
            self._index.delete(event.vector_id)
            return 1
        if isinstance(event, Checkpoint):
            return 0
        raise ValidationError(f"unknown event type: {type(event).__name__}")

    def estimate(
        self,
        threshold: float,
        *,
        mode: str = "auto",
        random_state: RandomState = None,
        estimator: Optional[str] = None,
    ) -> Estimate:
        if estimator is not None:
            raise UnsupportedOperationError(
                "backend 'streaming' serves a single LSH-SS(stream) estimator; "
                "per-request estimator selection needs the 'static' backend"
            )
        return self._estimator.estimate(threshold, random_state=random_state, mode=mode)

    def describe(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "total_pairs": self.total_pairs,
            "num_collision_pairs": self._index.num_collision_pairs,
            "num_non_collision_pairs": self._index.num_non_collision_pairs,
            "staleness": {
                "h": self._estimator.staleness_h,
                "l": self._estimator.staleness_l,
            },
        }

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        # index state embeds the registered estimator's reservoirs
        return self.STATE.dump(index=self._index.to_state())

    @classmethod
    def from_state(
        cls,
        config: EngineConfig,
        state: Mapping[str, Any],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "StreamingBackend":
        cls.STATE.check(state)
        index = MutableLSHIndex.from_state(state["index"])
        _check_restore_config(config, state["index"])
        restored = index.estimators
        if not restored:
            # open() always registers one, so every streaming bundle carries it
            cls.STATE.refuse("its index state carries no estimator")
        backend = cls(config, metrics=metrics)
        backend._index = index
        backend._estimator = restored[0]
        return backend

    # ------------------------------------------------------------------
    @property
    def index(self) -> MutableLSHIndex:
        """The backing mutable index (advanced / diagnostic access)."""
        return self._index

    @property
    def size(self) -> int:
        return self._index.size

    @property
    def total_pairs(self) -> int:
        return self._index.total_pairs


# ----------------------------------------------------------------------
# sharded
# ----------------------------------------------------------------------
class ShardedBackend(EstimatorBackend):
    """Bucket-key-partitioned cluster behind a buffered router.

    Every mode is served by one :class:`ShardedStreamingEstimator` — the
    streaming estimator over the facade, its maintenance generator
    seeded ``seed + 2`` as on the ``streaming`` backend — so the shard
    count and rebalances never change an answer.

    Options
    -------
    ``num_shards`` (default 4)
        Passed to :class:`ShardedMutableIndex`.
    ``batch_size`` (default 256)
        Passed to :class:`ShardRouter`.
    ``sample_size_h`` / ``sample_size_l`` / ``answer_threshold`` /
    ``dampening``
        Passed to the :class:`ShardedStreamingEstimator`.
    """

    kind = "sharded"
    OPTIONS = {"num_shards": (Integral,), "batch_size": (Integral,), **_ESTIMATOR_OPTIONS}
    STATE = StateSpec(
        "a 'sharded' backend snapshot", {"index": Mapping}, kind="sharded-backend"
    )

    def open(self) -> None:
        if self.config.dimension is None:
            raise ValidationError(
                "backend 'sharded' needs config.dimension (hash families "
                "bind to the vector space eagerly)"
            )
        options = self.config.options
        self._index = ShardedMutableIndex(
            self.config.dimension,
            num_shards=options.get("num_shards", 4),
            num_hashes=self.config.num_hashes,
            family=self.config.family,
            random_state=self.config.seed + 1,
        )
        self._attach_serving_stack()

    def _attach_serving_stack(
        self, estimator_states: Sequence[Mapping[str, Any]] = ()
    ) -> None:
        """Wire the router and the facade estimator: a fresh one, or the
        first of the checkpointed ``estimator_states`` adopted without
        redrawing.  Any further estimators are reattached after it, so
        the served one stays first in the next snapshot."""
        options = self.config.options
        self._index.metrics = self.metrics
        self._router = ShardRouter(
            self._index,
            batch_size=options.get("batch_size", 256),
            metrics=self.metrics,
        )
        if estimator_states:
            self._estimator = ShardedStreamingEstimator.from_state(
                self._index, estimator_states[0], router=self._router, metrics=self.metrics
            )
            restore_estimator_states(self._index, estimator_states[1:])
            return
        merge_kwargs = {key: options[key] for key in _ESTIMATOR_OPTIONS if key in options}
        self._estimator = ShardedStreamingEstimator(
            self._index,
            router=self._router,
            metrics=self.metrics,
            random_state=self.config.seed + 2,
            **merge_kwargs,
        )

    def close(self) -> None:
        self._router.close()

    def flush(self) -> None:
        self._router.flush()

    def quiesce(self) -> None:
        # as on the streaming backend: repair now, so auto-mode estimates
        # against a published generation stay read-only
        self._estimator.repair()

    def drain_pending(self) -> PendingWrites:
        return self._router.drain_pending()

    def ingest_collection(self, collection: VectorCollection) -> int:
        self._router.flush()  # keep id assignment in ingest order
        self._index.insert_many(collection.matrix)
        return collection.size

    def apply_event(self, event: object) -> int:
        if isinstance(event, Insert):
            self._router.insert(event.vector)
            return 1
        if isinstance(event, Delete):
            self._router.delete(event.vector_id)
            return 1
        if isinstance(event, Checkpoint):
            # checkpoints mean "consistent point": drain the write buffer,
            # matching ShardRouter.replay and the CLI replay loops
            self._router.flush()
            return 0
        raise ValidationError(f"unknown event type: {type(event).__name__}")

    def estimate(
        self,
        threshold: float,
        *,
        mode: str = "auto",
        random_state: RandomState = None,
        estimator: Optional[str] = None,
    ) -> Estimate:
        if estimator is not None:
            raise UnsupportedOperationError(
                "backend 'sharded' serves a single LSH-SS(sharded) estimator; "
                "per-request estimator selection needs the 'static' backend"
            )
        return self._estimator.estimate(threshold, random_state=random_state, mode=mode)

    def describe(self) -> Dict[str, Any]:
        return {
            "size": self.size,
            "total_pairs": self.total_pairs,
            "num_collision_pairs": self._index.num_collision_pairs,
            "num_non_collision_pairs": self._index.num_non_collision_pairs,
            "num_shards": self._index.num_shards,
            "shard_sizes": list(self._index.shard_sizes),
            "pending_writes": self._router.pending,
            "staleness": {
                "h": self._estimator.staleness_h,
                "l": self._estimator.staleness_l,
            },
        }

    # ------------------------------------------------------------------
    def rebalance(
        self,
        *,
        num_shards: Optional[int] = None,
        dry_run: bool = False,
    ) -> RebalancePlan:
        """Resize the live cluster to ``num_shards`` (default: unchanged),
        or with ``dry_run`` only plan it — the plan reads the facade's
        bucket table and touches no shard.  An applied rebalance updates
        ``self.config`` so later snapshots describe the adopted shape.
        """
        self._router.flush()
        target = self._index.num_shards if num_shards is None else int(num_shards)
        if dry_run:
            return plan_rebalance(self._index, target)
        plan = rebalance_cluster(self._index, target)
        self.config = self.config.replace(
            options={**self.config.options, "num_shards": self._index.num_shards}
        )
        return plan

    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, Any]:
        self._router.flush()
        return self.STATE.dump(index=self._index.to_state())

    @classmethod
    def _split_state(
        cls, config: EngineConfig, state: Mapping[str, Any]
    ) -> Tuple[Dict[str, Any], List[Mapping[str, Any]]]:
        """The index state without its estimators, and apart from it their
        states (the served facade estimator's first); refuses a ``config``
        that contradicts the index (:func:`_check_restore_config`)."""
        cls.STATE.check(state)
        SHARDED_STATE.check(state["index"])
        _check_restore_config(config, state["index"])
        index_state = dict(state["index"])
        estimator_states = list(index_state.pop("estimators", ()))
        if not estimator_states:
            # open() always registers one, so every sharded bundle carries it
            cls.STATE.refuse("its index state carries no estimator")
        index_state["estimators"] = []
        return index_state, estimator_states

    @classmethod
    def from_state(
        cls,
        config: EngineConfig,
        state: Mapping[str, Any],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ShardedBackend":
        index_state, estimator_states = cls._split_state(config, state)
        backend = cls(config, metrics=metrics)
        backend._index = ShardedMutableIndex.from_state(index_state)
        backend._attach_serving_stack(estimator_states)
        return backend

    # ------------------------------------------------------------------
    @property
    def index(self) -> ShardedMutableIndex:
        """The backing sharded index (advanced / diagnostic access)."""
        return self._index

    @property
    def size(self) -> int:
        return self._index.size

    @property
    def total_pairs(self) -> int:
        return self._index.total_pairs


__all__ = [
    "EstimatorBackend",
    "StaticBackend",
    "StreamingBackend",
    "ShardedBackend",
    "resolve_backend",
]
