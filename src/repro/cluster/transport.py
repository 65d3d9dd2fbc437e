"""Length-prefixed pickle framing for the coordinator ↔ worker protocol.

One frame is an 8-byte big-endian length followed by that many bytes of
pickle.  A message is the tuple ``(op, payload, meta)`` where ``op`` is
a short string, ``payload`` a dict whose values are exactly the objects
the library already serialises elsewhere — id arrays and lists, CSR rows
and :meth:`~repro.streaming.rowstore.RowStore.state` snapshots (a
``write`` carries the ids and rows one shard gains and the id list it
drops) — so the wire format is the snapshot substrate, not a second
serialisation scheme.  ``meta`` is an
out-of-band envelope dict (``{}`` when absent) that never carries data
the op handler needs: requests use it to propagate the trace context
(``{"trace": {"trace_id", "span_id"}}``), replies to carry op timing
(``{"seconds": ...}``) and finished worker spans (``{"spans": [...]}``).
Every frame is the 3-tuple; anything else is refused as malformed.

Replies reuse the same frames: ``("ok", result, meta)`` or ``("error",
payload, meta)`` where the payload carries the worker-side exception
(the exception object itself when it is one of the library's own
:class:`~repro.errors.ReproError` types, so e.g. an
:class:`~repro.errors.InsufficientSampleError` raised inside a worker
surfaces as the same type at the coordinator).

Trust model: pickle deserialisation executes arbitrary callables, so the
transport is for *trusted* links only — workers the coordinator spawned
itself, or workers an operator started on machines they control, guarded
by the shared-token handshake.  It is not a public network protocol.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from repro.errors import ClusterError, ReproError, ValidationError, WorkerCrashError

#: wire protocol version; bumped on incompatible frame/op changes.
#: 2: messages gained an optional third ``meta`` element (trace context
#: on requests; op timing and spans on replies).
#: 3: ``meta`` is mandatory; the 2-tuple frame is refused.
#: 4: one LSH table per shard — ``configure`` ships one ``family`` and
#: ``insert_prepared`` one ``(rows, k)`` signature array.
#: 5: workers host no estimator and draw no samples; the estimator ops,
#: ``sample_pairs`` and the estimator fields of ``configure`` /
#: ``restore`` / ``stats`` are gone.
#: 6: workers hold rows only — ``configure`` carries no family,
#: ``insert_prepared`` ids and rows only, ``delete`` an id array and
#: ``restore`` / ``snapshot`` a row-store state; ``bucket_members`` is gone
#: and ``ids`` is new.
#: 7: the op table moved to :class:`~repro.shard.ops.ShardWorker`, which
#: also serves in process; ``gather_rows`` replies with CSR parts
#: (``data, indices, indptr``) instead of a CSR matrix.
#: 8: ``insert_prepared`` and ``delete`` merged into one ``write`` op: one
#: request per shard per batch carries the ids and rows to add and the
#: ids to ``drop``.
PROTOCOL_VERSION = 8

#: refuse frames beyond this size (corrupt length prefix / runaway state)
MAX_FRAME_BYTES = 4 << 30

_HEADER = struct.Struct(">Q")


class ConnectionClosed(WorkerCrashError):
    """The peer closed (or reset) the connection mid-protocol."""


def parse_address(address: str, *, allow_ephemeral: bool = False) -> Tuple[str, int]:
    """Parse ``"host:port"`` into a ``(host, port)`` pair.

    ``allow_ephemeral`` admits port 0 — meaningful only for *listen*
    addresses (bind to a free port); connecting to port 0 is never valid.
    """
    if not isinstance(address, str) or ":" not in address:
        raise ValidationError(
            f"worker address must look like 'host:port', got {address!r}"
        )
    host, _, port_text = address.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise ValidationError(
            f"worker address must end in an integer port, got {address!r}"
        ) from None
    if not host or not (0 if allow_ephemeral else 1) <= port < 65536:
        raise ValidationError(f"invalid worker address {address!r}")
    return host, port


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionClosed(
                f"connection closed after {count - remaining} of {count} bytes"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def encode_message(op: str, payload: Any, meta: Optional[Dict[str, Any]] = None) -> bytes:
    """Frame one message: header + pickled ``(op, payload, meta)``."""
    body = pickle.dumps(
        (op, payload, {} if meta is None else meta), protocol=pickle.HIGHEST_PROTOCOL
    )
    if len(body) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"refusing to send a {len(body)}-byte frame (> {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(body)) + body


def decode_message(body: bytes) -> Tuple[str, Any, Dict[str, Any]]:
    """Decode one frame body into ``(op, payload, meta)``."""
    message = pickle.loads(body)
    if not (
        isinstance(message, tuple)
        and len(message) == 3
        and isinstance(message[0], str)
        and isinstance(message[2], dict)
    ):
        raise ClusterError(
            f"malformed frame: expected (op, payload, meta dict), got {type(message)}"
        )
    op, payload, meta = message
    return op, payload, meta


def send_message(
    sock: socket.socket, op: str, payload: Any, meta: Optional[Dict[str, Any]] = None
) -> int:
    """Frame and send one message; returns the bytes put on the wire."""
    frame = encode_message(op, payload, meta)
    sock.sendall(frame)
    return len(frame)


def _recv_frame(sock: socket.socket) -> Tuple[int, Tuple[str, Any, Dict[str, Any]]]:
    """Receive one frame; returns (wire_bytes, decoded message)."""
    header = _recv_exactly(sock, _HEADER.size)
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ClusterError(
            f"peer announced a {length}-byte frame (> {MAX_FRAME_BYTES}); "
            "corrupt stream or protocol mismatch"
        )
    body = _recv_exactly(sock, int(length))
    return _HEADER.size + int(length), decode_message(body)


def recv_message(sock: socket.socket) -> Tuple[str, Any, Dict[str, Any]]:
    """Receive one framed ``(op, payload, meta)`` message (blocking)."""
    return _recv_frame(sock)[1]


def describe_error(error: BaseException) -> Dict[str, Any]:
    """A reply payload describing a worker-side exception.

    Library exceptions travel as objects (they are plain, picklable
    types of our own), anything else as text — unpickling arbitrary
    third-party exception classes at the coordinator is not worth the
    coupling.
    """
    import traceback

    payload: Dict[str, Any] = {
        "type": type(error).__name__,
        "message": str(error),
        "traceback": "".join(
            traceback.format_exception(type(error), error, error.__traceback__)
        ),
    }
    if isinstance(error, ReproError):
        try:
            pickle.dumps(error)
        except (pickle.PicklingError, TypeError, AttributeError, ValueError):
            # unpicklable payload on the exception: ship type/message/
            # traceback only and let the peer re-raise a generic copy
            pass
        else:
            payload["exception"] = error
    return payload


def raise_remote_error(payload: Dict[str, Any], *, context: str) -> None:
    """Re-raise a :func:`describe_error` payload at the coordinator."""
    exception = payload.get("exception")
    if isinstance(exception, ReproError):
        raise exception
    raise ClusterError(
        f"{context}: worker failed with {payload.get('type')}: "
        f"{payload.get('message')}\n--- worker traceback ---\n"
        f"{payload.get('traceback', '').rstrip()}"
    )


class Connection:
    """One framed, request/response socket to a peer.

    The coordinator keeps at most one outstanding request per
    connection; :meth:`send` / :meth:`recv` are exposed separately so a
    batch commit can be *pipelined* — send to every worker first, then
    collect every reply — which is where the multi-process parallelism
    of the ingest path comes from.

    When a :class:`~repro.obs.MetricsRegistry` is attached, the
    connection counts frames and bytes in each direction
    (``transport_frames_total`` / ``transport_bytes_total`` labelled by
    ``direction``).  :attr:`last_meta` holds the meta envelope of the
    most recently received reply — set *before* status unwrapping, so
    timing survives even error replies.
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        timeout: Optional[float] = None,
        metrics: Optional[Any] = None,
    ) -> None:
        self._sock = sock
        sock.settimeout(timeout)
        self.last_meta: Dict[str, Any] = {}
        if metrics is not None:
            self._frames_out = metrics.counter("transport_frames_total", direction="out")
            self._frames_in = metrics.counter("transport_frames_total", direction="in")
            self._bytes_out = metrics.counter("transport_bytes_total", direction="out")
            self._bytes_in = metrics.counter("transport_bytes_total", direction="in")
        else:
            self._frames_out = self._frames_in = None
            self._bytes_out = self._bytes_in = None

    @property
    def closed(self) -> bool:
        return self._sock is None

    def set_timeout(self, timeout: Optional[float]) -> None:
        """Adjust the per-operation timeout (e.g. short shutdown grace)."""
        if self._sock is not None:
            self._sock.settimeout(timeout)

    def send(
        self, op: str, payload: Any = None, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        if self._sock is None:
            raise ConnectionClosed("connection is closed")
        try:
            sent = send_message(self._sock, op, payload, meta)
        except (OSError, ValueError) as error:
            raise ConnectionClosed(f"send failed: {error}") from error
        if self._frames_out is not None:
            self._frames_out.inc()
            self._bytes_out.inc(sent)

    def recv(self) -> Tuple[str, Any, Dict[str, Any]]:
        if self._sock is None:
            raise ConnectionClosed("connection is closed")
        try:
            wire_bytes, (op, payload, meta) = _recv_frame(self._sock)
        except socket.timeout as error:
            raise WorkerCrashError(
                "timed out waiting for a worker reply (worker hung or overloaded)"
            ) from error
        except ConnectionClosed:
            raise
        except (OSError, ValueError, pickle.UnpicklingError, EOFError) as error:
            raise ConnectionClosed(f"receive failed: {error}") from error
        if self._frames_in is not None:
            self._frames_in.inc()
            self._bytes_in.inc(wire_bytes)
        return op, payload, meta

    def recv_reply(self, *, context: str) -> Any:
        """Receive one reply frame; unwrap ``ok`` or re-raise ``error``."""
        self.last_meta = {}  # never leak a previous reply's envelope
        status, payload, meta = self.recv()
        self.last_meta = meta
        if status == "ok":
            return payload
        if status == "error":
            raise_remote_error(payload, context=context)
        raise ClusterError(f"{context}: unexpected reply status {status!r}")

    def request(
        self,
        op: str,
        payload: Any = None,
        *,
        context: str = "",
        meta: Optional[Dict[str, Any]] = None,
    ) -> Any:
        """One synchronous round trip: send ``op``, await the reply."""
        self.send(op, payload, meta)
        return self.recv_reply(context=context or f"op {op!r}")

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass


__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "Connection",
    "ConnectionClosed",
    "parse_address",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
    "describe_error",
    "raise_remote_error",
]
