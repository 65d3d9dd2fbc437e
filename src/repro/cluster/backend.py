"""The ``process`` engine backend: a worker-process cluster behind the router.

:class:`ProcessBackend` subclasses the in-process
:class:`~repro.engine.backends.ShardedBackend` and swaps its
:class:`~repro.shard.sharded_index.ShardedMutableIndex` for a
:class:`~repro.cluster.coordinator.ClusterCoordinator` — everything else
(buffered router, facade estimator, rebalance driver, event semantics)
is inherited, so the two deployment shapes cannot drift apart.  It is
the engine's ``"process"`` kind (:func:`repro.engine.resolve_backend`):
any :class:`~repro.engine.JoinEstimationEngine` caller (and every CLI
command) reaches multi-process serving with a one-line config change::

    {"backend": "process", "dimension": 128,
     "options": {"shards": 4}}

Estimates in every mode are bit-identical to the ``sharded`` backend's
for the same seed, events and batch size, whatever either shard count;
exact-mode ones also to an unsharded ``streaming`` estimator (gated in
``benchmarks/bench_cluster.py`` along with the ≥ in-process
ingest-throughput gate).
"""

from __future__ import annotations

from numbers import Integral, Real
from typing import Any, Dict, Mapping, Optional

from repro.cluster.coordinator import (
    DEFAULT_REQUEST_TIMEOUT,
    ClusterCoordinator,
)
from repro.engine.backends import ShardedBackend
from repro.engine.config import EngineConfig
from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.state import StateSpec


class ProcessBackend(ShardedBackend):
    """Bucket-key-partitioned cluster of shard **worker processes**.

    Options
    -------
    ``shards`` (alias ``num_shards``, default 4), ``batch_size``,
    ``sample_size_h`` / ``sample_size_l`` / ``answer_threshold`` / ``dampening``
        As in the ``sharded`` backend.
    ``addresses``
        ``["host:port", …]`` of pre-started ``repro worker`` endpoints,
        one per shard; omitted = spawn local worker processes.
    ``token``
        Shared handshake secret for external workers (``repro worker
        --token``); auto-generated for spawned ones.
    ``request_timeout``
        Seconds before a silent worker fails the request instead of
        hanging the coordinator (default 120).
    ``start_method``
        ``multiprocessing`` start method for spawned workers.
    """

    kind = "process"
    OPTIONS = {
        **ShardedBackend.OPTIONS,
        "shards": (Integral,),
        "addresses": (list, tuple, type(None)),
        "token": (str, type(None)),
        "request_timeout": (Real, type(None)),
        "start_method": (str, type(None)),
    }
    # the coordinator keeps one outstanding request per worker
    # connection, so the serving layer serialises reads that reach this
    # backend instead of interleaving frames on its sockets
    CONCURRENT_READS = False
    # the inherited to_state writes this: same index state, own kind tag
    STATE = StateSpec(
        "a 'process' backend snapshot", {"index": Mapping}, kind="process-backend"
    )

    def __init__(self, config: EngineConfig, *, metrics: Optional[MetricsRegistry] = None) -> None:
        super().__init__(config, metrics=metrics)
        # normalise the 'shards' alias into 'num_shards' once, up front:
        # a later rebalance syncs 'num_shards' into the config, and a
        # stale alias surviving next to it would poison the re-open of a
        # rebalance-synced (or snapshot-embedded) config
        options = dict(config.options)
        if "shards" in options:
            if "num_shards" in options and options["shards"] != options["num_shards"]:
                raise ValidationError(
                    "options 'shards' and 'num_shards' disagree "
                    f"({options['shards']} vs {options['num_shards']}); give one"
                )
            options["num_shards"] = options.pop("shards")
            self.config = config.replace(options=options)

    def _cluster_kwargs(self) -> Dict[str, Any]:
        options = self.config.options
        return {
            "addresses": options.get("addresses"),
            "token": options.get("token"),
            "request_timeout": options.get("request_timeout", DEFAULT_REQUEST_TIMEOUT),
            "start_method": options.get("start_method"),
            # coordinator-side instruments (transport counters, request
            # counters, commit timings) land in this backend's registry
            "metrics": self.metrics,
        }

    def open(self) -> None:
        if self.config.dimension is None:
            raise ValidationError(
                "backend 'process' needs config.dimension (hash families "
                "bind to the vector space eagerly)"
            )
        options = self.config.options
        self._index = ClusterCoordinator(
            self.config.dimension,
            num_shards=options.get("num_shards", 4),
            num_hashes=self.config.num_hashes,
            family=self.config.family,
            random_state=self.config.seed + 1,
            **self._cluster_kwargs(),
        )
        try:
            self._attach_serving_stack()
        except BaseException:  # reprolint: disable=R007 - unwind the half-built cluster (reap workers) before re-raising
            self._index.close()
            raise

    def close(self) -> None:
        """Flush-and-stop the router, then shut the workers down.

        Worker shutdown runs even when the router's close raises (e.g.
        :class:`~repro.errors.StrandedWritesError` after a partial
        commit): a failing flush must never leak worker processes.
        """
        try:
            self._router.close()
        finally:
            self._index.close()

    def describe(self) -> Dict[str, Any]:
        description = super().describe()
        description["workers"] = self._index.worker_infos
        return description

    def stats(self) -> Dict[str, Any]:
        """Cluster-wide stats: the coordinator's batched worker fan-out.

        The coordinator's merged snapshot already folds this backend's
        registry (the coordinator records into it) together with every
        worker's process-global registry, so the merge happens exactly
        once.
        """
        cluster = self._index.stats()
        return {
            "backend": self.kind,
            "describe": self.describe(),
            "workers": cluster["workers"],
            "metrics": cluster["metrics"],
        }

    # ------------------------------------------------------------------
    @classmethod
    def from_state(
        cls,
        config: EngineConfig,
        state: Mapping[str, Any],
        *,
        metrics: Optional[MetricsRegistry] = None,
    ) -> "ProcessBackend":
        index_state, estimator_states = cls._split_state(config, state)
        backend = cls(config, metrics=metrics)
        backend._index = ClusterCoordinator.from_state(index_state, **backend._cluster_kwargs())
        try:
            backend._attach_serving_stack(estimator_states)
        except BaseException:  # reprolint: disable=R007 - unwind the half-restored cluster (reap workers) before re-raising
            backend._index.close()
            raise
        return backend

    # ------------------------------------------------------------------
    @property
    def index(self) -> ClusterCoordinator:
        """The backing cluster coordinator (advanced / diagnostic access)."""
        return self._index


__all__ = ["ProcessBackend"]
