"""Event layer of the streaming subsystem: change logs and replay.

A :class:`ChangeLog` is an ordered sequence of three event kinds:

* :class:`Insert` — a new vector enters the collection.  On replay the
  index assigns it the next sequential id (ids start at 0 and follow
  insertion order), so a log is self-contained: later :class:`Delete`
  events refer to those replay-assigned ids.
* :class:`Delete` — the vector with the given id leaves the collection.
* :class:`Checkpoint` — a marker at which an estimate should be emitted
  (by :meth:`ChangeLog.replay` or the ``repro stream`` CLI command).

Logs round-trip through JSON Lines, one event per line::

    {"op": "insert", "vector": {"0": 1.0, "7": 0.5}}
    {"op": "insert", "dense": [0.0, 1.0, 1.0]}
    {"op": "delete", "id": 0}
    {"op": "checkpoint", "label": "after-batch-1"}

Sparse vectors are ``{dimension_index: value}`` mappings (JSON object
keys are strings; ``"3"``, ``3`` and ``3.0`` name index 3); dense
vectors are plain lists.  Both are decoded under the one vector rule of
:mod:`repro.vectors.collection`, so a malformed vector refuses the whole
log.  This is the interchange format consumed by ``repro stream``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ValidationError
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection, coerce_mappings, coerce_matrix

if TYPE_CHECKING:  # imported lazily: events is the bottom of the layer stack
    from repro.streaming.estimator import StreamingEstimator
    from repro.streaming.mutable_index import MutableLSHIndex

VectorPayload = Union[Mapping[int, float], Sequence[float]]


@dataclass(frozen=True)
class Insert:
    """A vector entering the collection (sparse mapping or dense sequence)."""

    vector: VectorPayload


@dataclass(frozen=True)
class Delete:
    """The vector with replay-assigned id ``vector_id`` leaving the collection."""

    vector_id: int


@dataclass(frozen=True)
class Checkpoint:
    """A marker at which replay emits an estimate."""

    label: str = ""


Event = Union[Insert, Delete, Checkpoint]


def _integral(value: object, field: str) -> int:
    """``value`` as an ``int``: integers, integral floats such as ``3.0`` and
    numeric strings such as ``"3"`` (JSON object keys are always strings)
    pass; anything else is refused naming ``field``."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, Integral):
        return int(value)
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        number = math.nan
    if not number.is_integer():
        raise ValidationError(f"{field} must be an integer, got {value!r}")
    return int(number)


def _canonical_vector(vector: object, field: str) -> VectorPayload:
    """An insert's vector as every shape stores it, under the one vector
    rule (:func:`~repro.vectors.collection.coerce_mappings`,
    :func:`~repro.vectors.collection.coerce_matrix`): a mapping becomes
    ``{index: value}`` with sorted ``int`` indices and no zeros, a dense
    sequence a list of floats.  A refusal names ``field``."""
    try:
        if isinstance(vector, Mapping):
            row = coerce_mappings((vector,))
            return dict(zip(row.indices.tolist(), row.data.tolist()))
        return coerce_matrix([vector]).toarray()[0].tolist()
    except ValidationError as error:
        raise ValidationError(f"insert event {field!r}: {error}") from None


def event_to_dict(event: Event) -> Dict[str, object]:
    """Serialise one event into its JSONL dictionary form."""
    if isinstance(event, Insert):
        if isinstance(event.vector, Mapping):
            vector = _canonical_vector(event.vector, "vector")
            return {"op": "insert", "vector": {str(k): v for k, v in vector.items()}}
        return {"op": "insert", "dense": _canonical_vector(event.vector, "dense")}
    if isinstance(event, Delete):
        return {"op": "delete", "id": _integral(event.vector_id, "delete event 'id'")}
    if isinstance(event, Checkpoint):
        return {"op": "checkpoint", "label": event.label}
    raise ValidationError(f"unknown event type: {type(event).__name__}")


def event_from_dict(payload: Mapping[str, object]) -> Event:
    """Parse one JSONL dictionary back into an event.

    Ids must be integral and vectors valid under the one vector rule
    (:func:`~repro.vectors.collection.coerce_mappings`); anything else is
    a :class:`~repro.errors.ValidationError` naming the field, never a
    truncated id or index, so a bad event refuses a whole log.
    """
    op = payload.get("op")
    if op == "insert":
        if "vector" in payload:
            mapping = payload["vector"]
            if not isinstance(mapping, Mapping):
                raise ValidationError("insert event 'vector' must be an object")
            return Insert(_canonical_vector(mapping, "vector"))
        if "dense" in payload:
            dense = payload["dense"]
            if not isinstance(dense, (list, tuple)):
                raise ValidationError("insert event 'dense' must be a list")
            return Insert(_canonical_vector(dense, "dense"))
        raise ValidationError("insert event needs a 'vector' or 'dense' field")
    if op == "delete":
        if "id" not in payload:
            raise ValidationError("delete event needs an 'id' field")
        return Delete(_integral(payload["id"], "delete event 'id'"))
    if op == "checkpoint":
        return Checkpoint(str(payload.get("label", "")))
    raise ValidationError(f"unknown event op {op!r}; expected insert/delete/checkpoint")


@dataclass
class ChangeLog:
    """An append-only, replayable sequence of collection-change events."""

    events: List[Event] = field(default_factory=list)

    # ------------------------------------------------------------------
    def append(self, event: Event) -> None:
        self.events.append(event)

    def extend(self, events: Iterable[Event]) -> None:
        self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __getitem__(self, item: int) -> Event:
        return self.events[item]

    @property
    def num_mutations(self) -> int:
        """Number of insert/delete events (checkpoints excluded)."""
        return sum(1 for e in self.events if not isinstance(e, Checkpoint))

    # ------------------------------------------------------------------
    @classmethod
    def from_collection(
        cls,
        collection: VectorCollection,
        *,
        checkpoint_every: int = 0,
        label_format: str = "after-{count}",
    ) -> "ChangeLog":
        """Build a pure-insert log from a collection (row order = id order).

        With ``checkpoint_every > 0`` a checkpoint is appended after every
        that many inserts (and at the end).  Used by benchmarks and the
        shard CLI to turn a static corpus into a replayable stream.
        """
        if checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        log = cls()
        for row in range(collection.size):
            log.append(Insert(collection.row_dict(row)))
            count = row + 1
            if checkpoint_every and count % checkpoint_every == 0:
                log.append(Checkpoint(label_format.format(count=count)))
        if checkpoint_every and collection.size % checkpoint_every != 0:
            log.append(Checkpoint(label_format.format(count=collection.size)))
        return log

    # ------------------------------------------------------------------
    def replay(
        self,
        index: "MutableLSHIndex",
        *,
        estimator: Optional["StreamingEstimator"] = None,
        threshold: Optional[float] = None,
        random_state: RandomState = None,
    ) -> List[Tuple[str, object]]:
        """Apply every event to ``index`` in order.

        At each :class:`Checkpoint`, when both ``estimator`` and
        ``threshold`` are given, an estimate is produced and collected as
        ``(label, Estimate)``.  Insert events receive sequential ids from
        the index, so a log that was recorded against ids 0, 1, 2, … can
        be replayed onto a fresh index.
        """
        rng = ensure_rng(random_state)
        results: List[Tuple[str, object]] = []
        for event in self.events:
            if isinstance(event, Insert):
                index.insert(event.vector)
            elif isinstance(event, Delete):
                index.delete(event.vector_id)
            elif isinstance(event, Checkpoint):
                if estimator is not None and threshold is not None:
                    results.append((event.label, estimator.estimate(threshold, random_state=rng)))
            else:  # pragma: no cover - defensive
                raise ValidationError(f"unknown event type: {type(event).__name__}")
        return results

    # ------------------------------------------------------------------
    # JSON Lines round-trip
    # ------------------------------------------------------------------
    def to_jsonl(self, path: Union[str, Path]) -> None:
        """Write the log to ``path``, one JSON event per line."""
        lines = [json.dumps(event_to_dict(event)) for event in self.events]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")

    @classmethod
    def from_jsonl(cls, path: Union[str, Path]) -> "ChangeLog":
        """Load a log previously written with :meth:`to_jsonl`."""
        log = cls()
        for line_number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValidationError(f"line {line_number}: invalid JSON ({error})") from error
            log.append(event_from_dict(payload))
        return log


__all__ = [
    "Insert",
    "Delete",
    "Checkpoint",
    "Event",
    "ChangeLog",
    "event_to_dict",
    "event_from_dict",
]
