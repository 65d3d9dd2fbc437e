"""Declared snapshot state contracts.

Every snapshot-bearing class (index, row store, reservoirs, estimators,
sharded facade, engine bundle, backend states) declares its state dict once as a :class:`StateSpec`: the tags
it carries, each field's accepted type(s), and the keys a writer may
omit.  Writers build their dict with :meth:`StateSpec.dump`, readers call
:meth:`StateSpec.check` before touching a key, so a malformed snapshot
ends in one :class:`~repro.errors.ValidationError` naming the expected
state instead of a ``KeyError`` halfway through a restore.

``check`` validates the top level only; nested states are checked by
their own ``from_state``.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, NoReturn, Optional, Tuple, Union

from repro.errors import ValidationError

FieldType = Union[type, Tuple[type, ...]]


class StateSpec:
    """One declared state dict: tags, typed fields, optional keys."""

    def __init__(
        self,
        what: str,
        fields: Mapping[str, FieldType],
        *,
        format: Optional[int] = 1,
        kind: Optional[str] = None,
        optional: Tuple[str, ...] = (),
    ) -> None:
        self.what = what
        self.fields = dict(fields)
        self.tags: Dict[str, Any] = {}
        if format is not None:
            self.tags["format"] = format
        if kind is not None:
            self.tags["kind"] = kind
        self.optional = frozenset(optional)
        self._required = frozenset(self.tags) | (frozenset(self.fields) - self.optional)

    def dump(self, **fields: Any) -> Dict[str, Any]:
        """The tagged state dict; optional fields are written only when non-empty."""
        state = {**self.tags}
        for name, value in fields.items():
            if name not in self.optional or value:
                state[name] = value
        keys = set(state)
        if not self._required <= keys <= self._required | self.optional:
            raise TypeError(f"{self.what} fields {sorted(fields)} differ from the declaration")
        return state

    def check(self, state: object) -> None:
        """Refuse ``state`` unless its top level matches the declaration."""
        if not isinstance(state, Mapping):
            self.refuse(f"expected a mapping, got {type(state).__name__}")
        for tag, expected in self.tags.items():
            if state.get(tag) != expected:
                self.refuse(f"{tag} {state.get(tag)!r}, expected {expected!r}")
        keys = set(state)
        missing = self._required - keys
        if missing:
            self.refuse(f"missing key(s) {sorted(missing)}")
        unknown = keys - self._required - self.optional
        if unknown:
            self.refuse(f"unknown key(s) {sorted(map(str, unknown))}")
        for name, types in self.fields.items():
            if name in state and not isinstance(state[name], types):
                expected_types = types if isinstance(types, tuple) else (types,)
                self.refuse(
                    f"{name!r} is {type(state[name]).__name__}, expected "
                    + " or ".join(t.__name__ for t in expected_types)
                )

    def refuse(self, problem: str) -> NoReturn:
        """Raise the spec's ``ValidationError`` (also for readers' own checks)."""
        raise ValidationError(f"not {self.what}: {problem}")


__all__ = ["StateSpec"]
