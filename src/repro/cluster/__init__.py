"""Multi-process shard serving: worker processes + a coordinator protocol.

The in-process :mod:`repro.shard` layer *models* one node per shard; this
package realises it: each shard's rows live in their own **worker
process** (:mod:`~repro.cluster.worker`), which serves the shard's op
table (:class:`~repro.shard.ops.ShardWorker`), and a **coordinator**
(:mod:`~repro.cluster.coordinator`), which keeps the hash family and the
one bucket table, sends the same ops over a length-prefixed pickle
protocol (:mod:`~repro.cluster.transport`) whose payloads are exactly
the library's existing serialisations — ids with CSR rows, and
row-store states.

Because :class:`ClusterCoordinator` subclasses
:class:`~repro.shard.sharded_index.ShardedMutableIndex` and its
:class:`WorkerHandle` shards expose the same ``send_request`` /
``recv_reply`` pair as an in-process shard, the whole merge, dispatch,
snapshot and rebalance layer is shared: estimates of a process cluster are
**bit-identical** to an in-process one for the same seed, and exact-mode
ones to an unsharded estimator.  :class:`ProcessBackend`
(:mod:`~repro.cluster.backend`) is the engine's ``"process"`` backend
kind, so every :class:`~repro.engine.JoinEstimationEngine` caller and
CLI command reaches it through a one-line config change; ``repro
worker`` runs a standalone shard worker for multi-machine setups.
"""

from repro.cluster.backend import ProcessBackend
from repro.cluster.coordinator import ClusterCoordinator, WorkerHandle
from repro.cluster.transport import PROTOCOL_VERSION, Connection, parse_address
from repro.cluster.worker import serve

__all__ = [
    "ClusterCoordinator",
    "ProcessBackend",
    "WorkerHandle",
    "serve",
    "Connection",
    "parse_address",
    "PROTOCOL_VERSION",
]
