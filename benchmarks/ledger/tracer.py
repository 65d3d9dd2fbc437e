"""Per-layer tracing from outside the program: wrap, time, restore.

Each :class:`Target` names one public function or method of a layer.
:func:`install` replaces it at its definition *and* at every import
site inside ``repro`` (any module attribute that is the same function
object), so a call reaches the wrapper whichever name it goes through.
A target that no longer exists raises :class:`LookupError` at install
time, and :func:`uncalled` lists the targets a workload claims but never
reached — a renamed import site fails the run instead of reporting 0.

Self time is a call's duration minus the time its wrapped callees took
(a per-thread stack of child totals).  Wrappers record only while the
calling thread has an active phase (``with tracer.active("estimate")``),
so a traced run can alternate traced and untraced operations and
measure the tracing overhead from the difference.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

STATIC = "static_query"
STREAMING = "churn_streaming"
PROCESS = "churn_process"
SERVE = "churn_serve"


@dataclass(frozen=True)
class Target:
    """One wrapped layer function and the workloads that must reach it."""

    name: str  # record key, the prefix of its per-layer metrics
    module: str
    attr: str  # "function" or "Class.method"
    workloads: FrozenSet[str]
    #: an extra quantity per successful call, from (args, result)
    measure: Optional[Callable[[tuple, Any], float]] = None


def _target(name: str, module: str, attr: str, *workloads: str,
            measure: Optional[Callable[[tuple, Any], float]] = None) -> Target:
    return Target(name, module, attr, frozenset(workloads), measure)


TARGETS: List[Target] = [
    _target("engine.estimate", "repro.engine.engine", "JoinEstimationEngine.estimate",
            STATIC, STREAMING, PROCESS),
    _target("engine.ingest", "repro.engine.engine", "JoinEstimationEngine.ingest",
            STREAMING, PROCESS),
    _target("engine.flush", "repro.engine.engine", "JoinEstimationEngine.flush",
            STREAMING, PROCESS),
    _target("vectors.cosine_pairs", "repro.vectors.similarity", "cosine_pairs", STATIC,
            measure=lambda args, result: len(result)),
    _target("lsh.LSHTable.sample_collision_pairs", "repro.lsh.table",
            "LSHTable.sample_collision_pairs", STATIC),
    _target("lsh.LSHTable.sample_non_collision_pairs", "repro.lsh.table",
            "LSHTable.sample_non_collision_pairs", STATIC),
    _target("sampling.adaptive_sample", "repro.sampling.adaptive", "adaptive_sample",
            STATIC, STREAMING, PROCESS),
    _target("core.sample_stratum_h", "repro.core.lsh_ss", "sample_stratum_h",
            STATIC, STREAMING, PROCESS),
    _target("core.sample_stratum_l", "repro.core.lsh_ss", "sample_stratum_l",
            STATIC, STREAMING, PROCESS),
    _target("streaming.MutableLSHIndex.cosine_pairs", "repro.streaming.mutable_index",
            "MutableLSHIndex.cosine_pairs", STREAMING),
    _target("streaming.coerce_row", "repro.streaming.mutable_index", "coerce_row",
            STREAMING, PROCESS),
    _target("lsh.LSHFamily.hash_matrix", "repro.lsh.families", "LSHFamily.hash_matrix",
            STREAMING, PROCESS),
    _target("streaming.MutableLSHIndex.insert", "repro.streaming.mutable_index",
            "MutableLSHIndex.insert", STREAMING),
    _target("streaming.MutableLSHIndex.delete", "repro.streaming.mutable_index",
            "MutableLSHIndex.delete", STREAMING),
    _target("streaming.StreamingEstimator.on_insert", "repro.streaming.estimator",
            "StreamingEstimator.on_insert", STREAMING),
    _target("streaming.StreamingEstimator.on_delete", "repro.streaming.estimator",
            "StreamingEstimator.on_delete", STREAMING),
    _target("streaming.StreamingEstimator.refill", "repro.streaming.estimator",
            "StreamingEstimator._refill", STREAMING),
    _target("shard.ShardRouter.flush", "repro.shard.router", "ShardRouter.flush", PROCESS),
    _target("shard.ShardedMutableIndex.prepare_batch", "repro.shard.sharded_index",
            "ShardedMutableIndex.prepare_batch", PROCESS),
    _target("shard.KeyPartitioner.shard_of_signatures", "repro.shard.partition",
            "KeyPartitioner.shard_of_signatures", PROCESS),
    _target("shard.ShardedStreamingEstimator.estimate", "repro.shard.merge",
            "ShardedStreamingEstimator.estimate", PROCESS),
    _target("shard.ShardedMutableIndex.cosine_pairs", "repro.shard.sharded_index",
            "ShardedMutableIndex.cosine_pairs", PROCESS),
    _target("cluster.ClusterCoordinator.commit_batch", "repro.cluster.coordinator",
            "ClusterCoordinator.commit_batch", PROCESS),
    _target("cluster.WorkerHandle.send_request", "repro.cluster.coordinator",
            "WorkerHandle.send_request", PROCESS),
    # self time = coordinator blocked on the socket; the measure is the
    # worker's own handler time, shipped back in the reply envelope
    _target("cluster.WorkerHandle.recv_reply", "repro.cluster.coordinator",
            "WorkerHandle.recv_reply", PROCESS,
            measure=lambda args, result: args[0].last_op_seconds),
    _target("cluster.transport.encode", "repro.cluster.transport", "encode_message",
            PROCESS, SERVE, measure=lambda args, result: len(result)),
    _target("cluster.transport.decode", "repro.cluster.transport", "decode_message",
            PROCESS, SERVE, measure=lambda args, result: len(args[0])),
]


class Record:
    """Accumulated calls, self seconds and measure of one (target, phase)."""

    __slots__ = ("calls", "self_s", "measure")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.measure = 0.0


class Tracer:
    """Self-time accounting for wrapped calls, per thread and phase."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        self.records: Dict[Tuple[str, str], Record] = {}

    @contextmanager
    def active(self, phase: Optional[str]) -> Iterator[None]:
        """Record wrapped calls of this thread under ``phase`` (None = off)."""
        previous = getattr(self._local, "phase", None)
        self._local.phase = phase
        try:
            yield
        finally:
            self._local.phase = previous

    def call(self, target: Target, fn: Callable[..., Any], args: tuple, kwargs: dict) -> Any:
        local = self._local
        phase = getattr(local, "phase", None)
        if phase is None:
            return fn(*args, **kwargs)
        stack: List[float] = local.__dict__.setdefault("stack", [])
        stack.append(0.0)
        started = self._clock()
        result: Any = None
        succeeded = False
        try:
            result = fn(*args, **kwargs)
            succeeded = True
            return result
        finally:
            elapsed = self._clock() - started
            children = stack.pop()
            if stack:
                stack[-1] += elapsed
            measured = target.measure(args, result) if succeeded and target.measure else 0.0
            with self._lock:
                record = self.records.get((target.name, phase))
                if record is None:
                    record = self.records[(target.name, phase)] = Record()
                record.calls += 1
                record.self_s += elapsed - children
                record.measure += measured

    # -- queries -------------------------------------------------------
    def get(self, name: str, phases: Sequence[str]) -> Record:
        """The sum of ``name``'s records over ``phases``."""
        total = Record()
        for phase in phases:
            record = self.records.get((name, phase))
            if record is not None:
                total.calls += record.calls
                total.self_s += record.self_s
                total.measure += record.measure
        return total

    def total_self_s(self) -> float:
        return sum(record.self_s for record in self.records.values())


def _wrapper(tracer: Tracer, target: Target, original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapped(*args: Any, **kwargs: Any) -> Any:
        return tracer.call(target, original, args, kwargs)

    return wrapped


def _resolve(target: Target) -> Tuple[Any, str, Any]:
    module = importlib.import_module(target.module)
    owner_path, _, attr = target.attr.rpartition(".")
    owner: Any = module
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{target.module}.{target.attr}: no {part!r} in its path")
    if attr not in vars(owner):
        raise LookupError(
            f"{target.module}.{target.attr} is not defined there; update the "
            "ledger's wrap table (benchmarks/ledger/tracer.py)"
        )
    return owner, attr, vars(owner)[attr]


def install(tracer: Tracer, targets: Sequence[Target] = TARGETS) -> Callable[[], None]:
    """Wrap every target at every site; returns the function that restores them."""
    resolved = [(target, *_resolve(target)) for target in targets]
    patches: List[Tuple[Any, str, Any]] = []
    for target, owner, attr, original in resolved:
        wrapper = _wrapper(tracer, target, original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (module, name)
                for module_name, module in list(sys.modules.items())
                if module is not None and module_name.split(".")[0] == "repro"
                for name, value in list(vars(module).items())
                if value is original
            ]
        for site, name in sites:
            patches.append((site, name, original))
            setattr(site, name, wrapper)

    def uninstall() -> None:
        for site, name, original in reversed(patches):
            setattr(site, name, original)

    return uninstall


def uncalled(tracer: Tracer, workload: str, targets: Sequence[Target] = TARGETS) -> List[str]:
    """Targets ``workload`` claims that recorded no call."""
    called = {name for (name, _phase), record in tracer.records.items() if record.calls}
    return [t.name for t in targets if workload in t.workloads and t.name not in called]
