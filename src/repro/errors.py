"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch a single type when they want to distinguish library
failures from programming errors in their own code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by :mod:`repro`."""


class ValidationError(ReproError, ValueError):
    """Raised when an argument fails validation (bad shape, range, type)."""


class EmptyCollectionError(ValidationError):
    """Raised when an operation requires a non-empty vector collection."""


class DimensionMismatchError(ValidationError):
    """Raised when two vectors or collections have incompatible dimensions."""


class EstimationError(ReproError):
    """Raised when an estimator cannot produce a meaningful estimate."""


class InsufficientSampleError(EstimationError):
    """Raised when a sampling procedure cannot draw the requested sample.

    For example, sampling a pair from stratum H when every LSH bucket
    contains a single vector, or cross-sampling more vectors than exist in
    the collection without replacement.
    """


class IndexNotBuiltError(ReproError):
    """Raised when an LSH-backed estimator is used before its index exists."""


class UnsupportedOperationError(ReproError):
    """Raised when an engine backend is asked for an operation it cannot do.

    For example, deleting from the immutable ``static`` backend, or
    rebalancing anything but the ``sharded`` backend.  Distinct from
    :class:`ValidationError` so callers can branch on "wrong deployment
    shape" separately from "malformed argument".
    """


class StrandedWritesError(ReproError):
    """Raised when closing a writer would silently discard buffered writes.

    :meth:`repro.shard.router.ShardRouter.close` raises this after a
    partial batch-commit failure: the buffered writes can be neither
    retried (some shard slices may already be applied) nor dropped
    without telling the caller.  The unapplied inserts are attached as
    :attr:`pending_rows` (1×d CSR rows in arrival order) and the
    unapplied deletes as :attr:`pending_deletes` (vector ids in arrival
    order), so callers can re-route them to a fresh cluster.
    """

    def __init__(self, message: str, pending_rows=(), pending_deletes=()):
        super().__init__(message)
        #: buffered insert rows (1×d CSR) that were never applied
        self.pending_rows = list(pending_rows)
        #: buffered delete ids that were never applied
        self.pending_deletes = list(pending_deletes)


class ServeError(ReproError):
    """Raised for failures of the estimation server (repro.serve).

    Covers a server left unusable by an earlier commit failure, writer
    breakdown, and lifecycle misuse (requests after shutdown began).
    """


class ServerBusyError(ServeError):
    """Raised when the server rejects a request under backpressure.

    The server bounds its write queue and its in-flight estimate pool;
    rather than buffering without limit it answers ``busy`` with a
    retry hint.  The client raises this once its retry budget is
    exhausted, with the server's most recent hint in
    :attr:`retry_after` (seconds).
    """

    def __init__(self, message: str, retry_after: float = 0.0):
        super().__init__(message)
        #: server-suggested delay in seconds before retrying
        self.retry_after = float(retry_after)


class ClusterError(ReproError):
    """Raised for failures of the multi-process cluster (repro.cluster).

    Covers coordinator/worker protocol violations, configuration
    problems, and a cluster left unusable by an earlier failure.
    """


class WorkerCrashError(ClusterError):
    """Raised when a shard worker process died or stopped responding.

    The coordinator raises this instead of hanging when a request cannot
    be completed because the worker's transport broke (process crash,
    connection reset) or timed out.
    """
