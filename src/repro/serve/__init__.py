"""Estimation-as-a-service: a concurrent daemon over one engine.

The query-optimizer loop asks "how big is this similarity join?" many
times per second while the data keeps changing.  This package turns a
:class:`~repro.engine.JoinEstimationEngine` into that service:

* :mod:`~repro.serve.generations` — :class:`GenerationManager`, one
  engine behind a writer-preferring readers–writer gate: any number of
  concurrent reads, and a single batching writer whose commit holds
  them off only while it applies, flushes and quiesces its batch, so
  no read sees a half-applied batch.
* :mod:`~repro.serve.server` — :class:`EstimationServer`, the daemon:
  framed-socket transport, a thread per connection, bounded write queue
  and estimate pool with explicit ``busy``/retry-after backpressure,
  per-request latency histograms and request-scoped spans, graceful
  drain on shutdown (``repro serve`` on the CLI).
* :mod:`~repro.serve.client` — :class:`ServeClient`, the blocking
  helper a planner embeds: ``ingest``/``estimate``/``flush``/``stats``
  with busy-retry and full :class:`~repro.engine.EstimateResult`
  reconstruction.

Reproducibility survives concurrency: a request's resolved seed rides
in its provenance, and the same seed against the same epoch returns the
same bits no matter how many clients are asking at once.
"""

from repro.serve.client import ServeClient, connect_with_retry
from repro.serve.generations import BatchResult, Generation, GenerationManager
from repro.serve.server import EstimationServer

__all__ = [
    "BatchResult",
    "EstimationServer",
    "Generation",
    "GenerationManager",
    "ServeClient",
    "connect_with_retry",
]
