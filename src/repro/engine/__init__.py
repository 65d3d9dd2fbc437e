"""Unified estimation engine: one front-door API over every backend.

The repo grew four ways to get a join-size estimate — static
``LSHIndex`` + ``LSHSSEstimator``, single-node ``MutableLSHIndex`` +
``StreamingEstimator``, sharded clusters, and rebalanced clusters — each
with its own construction ritual.  This package collapses them behind
one seam:

* :mod:`~repro.engine.config` — :class:`EngineConfig`, the declarative,
  JSON round-trippable description of a deployment (family, ``k``,
  seed, backend kind + options).
* :mod:`~repro.engine.backends` — the :class:`EstimatorBackend`
  protocol, :func:`resolve_backend` over the four declared kinds, and
  the ``static`` / ``streaming`` / ``sharded`` implementations
  delegating to the existing layers (estimates stay bit-identical to
  direct construction for the same seed); the fourth, ``process``,
  lives in :mod:`repro.cluster`.
* :mod:`~repro.engine.engine` — :class:`JoinEstimationEngine` with the
  single lifecycle ``open → ingest → estimate → snapshot/restore →
  rebalance → close``, and the :class:`EstimateRequest` /
  :class:`EstimateResult` envelopes with full provenance.
"""

from repro.engine.backends import (
    EstimatorBackend,
    ShardedBackend,
    StaticBackend,
    StreamingBackend,
    resolve_backend,
)
from repro.engine.config import EngineConfig
from repro.engine.engine import (
    EstimateRequest,
    EstimateResult,
    JoinEstimationEngine,
    Provenance,
)

__all__ = [
    "EngineConfig",
    "EstimateRequest",
    "EstimateResult",
    "Provenance",
    "JoinEstimationEngine",
    "EstimatorBackend",
    "StaticBackend",
    "StreamingBackend",
    "ShardedBackend",
    "resolve_backend",
]
