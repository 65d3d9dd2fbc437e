"""Declarative configuration for :class:`~repro.engine.JoinEstimationEngine`.

An :class:`EngineConfig` is the single construction ritual for every
deployment shape: it names the LSH parameters shared by all backends
(``family``, ``num_hashes``, ``seed``; every backend holds one LSH
table), the backend ``kind`` (``"static"``, ``"streaming"``,
``"sharded"`` or ``"process"``), and the backend-specific ``options``.
Every field is a JSON-compatible scalar or mapping, so configs
round-trip losslessly through
:meth:`~EngineConfig.to_dict` / :meth:`~EngineConfig.from_dict` and
:meth:`~EngineConfig.to_json` / :meth:`~EngineConfig.from_json` — the
``repro`` CLI reads them from a ``--config`` file, and engine snapshots
embed them so a restored engine knows how it was built.

Seed discipline
---------------
``seed`` is the root of the engine's determinism contract: the backend
builds its index from ``seed + 1`` and any maintenance generator from
``seed + 2`` (exactly the offsets the CLI always used), and an estimate
request without an explicit per-call seed falls back to ``seed``.  Two
engines opened from equal configs and fed the same ingest therefore
serve bit-identical estimates — and identical to a hand-built backend
using the same offsets.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.errors import ValidationError
from repro.lsh.families import check_cosine_family

#: Field names accepted by :meth:`EngineConfig.from_dict`.
_CONFIG_FIELDS = ("backend", "family", "num_hashes", "seed", "dimension", "options")


@dataclass
class EngineConfig:
    """Everything needed to open a :class:`~repro.engine.JoinEstimationEngine`.

    Parameters
    ----------
    backend:
        Backend kind: ``"static"``, ``"streaming"``, ``"sharded"`` or
        ``"process"``.
    family:
        LSH family *name*.  Only ``"cosine"`` is accepted: every estimator
        evaluates cosine similarity, so the field declares the measure
        (a name, not a family object, so configs stay JSON round-trippable).
    num_hashes:
        ``k`` hash functions of the one LSH table every backend holds
        (the ``ℓ``-table variants live on :class:`~repro.lsh.LSHIndex`).
    seed:
        Root seed of the determinism contract (see module docstring);
        a non-negative int.
    dimension:
        Vector dimensionality ``d``.  Required by the mutable backends
        (their hash families bind to ``d`` eagerly); the static backend
        can infer it from the first ingested collection.
    options:
        Backend-specific knobs.  Each backend declares the keys it
        understands and their value types (``EstimatorBackend.OPTIONS``);
        unknown keys and wrongly typed values are rejected at validation
        time so typos cannot silently change a deployment.
    """

    backend: str = "static"
    family: str = "cosine"
    num_hashes: int = 20
    seed: int = 7
    dimension: Optional[int] = None
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every field, including options against the backend's set."""
        # late import: backends imports this module for its type hints
        from repro.engine.backends import resolve_backend

        if not isinstance(self.backend, str):
            raise ValidationError(f"backend must be a kind string, got {self.backend!r}")
        backend_class = resolve_backend(self.backend)
        check_cosine_family(self.family, instance_ok=False)
        for name in ("num_hashes", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValidationError(f"{name} must be an int, got {value!r}")
        if self.num_hashes < 1:
            raise ValidationError(f"num_hashes (k) must be >= 1, got {self.num_hashes}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.dimension is not None:
            if not isinstance(self.dimension, int) or isinstance(self.dimension, bool):
                raise ValidationError(f"dimension must be an int, got {self.dimension!r}")
            if self.dimension < 1:
                raise ValidationError(f"dimension must be >= 1, got {self.dimension}")
        if not isinstance(self.options, Mapping):
            raise ValidationError(f"options must be a mapping, got {type(self.options).__name__}")
        self.options = dict(self.options)
        backend_class.check_options(self.options)

    # ------------------------------------------------------------------
    # round-tripping
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict form, safe to mutate and to serialise as JSON."""
        payload = dataclasses.asdict(self)
        payload["options"] = dict(self.options)
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EngineConfig":
        """Rebuild a config from :meth:`to_dict` output (unknown keys rejected)."""
        if not isinstance(payload, Mapping):
            raise ValidationError(f"config payload must be a mapping, got {type(payload).__name__}")
        unknown = sorted(set(payload) - set(_CONFIG_FIELDS))
        if unknown:
            raise ValidationError(
                f"unknown config field(s) {unknown}; expected a subset of {list(_CONFIG_FIELDS)}"
            )
        return cls(**{key: payload[key] for key in _CONFIG_FIELDS if key in payload})

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "EngineConfig":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValidationError(f"config is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def to_file(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "EngineConfig":
        path = Path(path)
        if not path.is_file():
            raise ValidationError(f"engine config not found: {path}")
        return cls.from_json(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    def replace(self, **changes: Any) -> "EngineConfig":
        """A copy with ``changes`` applied (and re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def coerce(cls, config: Union["EngineConfig", Mapping[str, Any], str, Path]) -> "EngineConfig":
        """Accept a config, a dict, or a JSON file path; return a config."""
        if isinstance(config, cls):
            return config
        if isinstance(config, Mapping):
            return cls.from_dict(config)
        if isinstance(config, (str, Path)):
            return cls.from_file(config)
        raise ValidationError(
            f"cannot build an EngineConfig from {type(config).__name__}; "
            "expected EngineConfig, mapping, or JSON file path"
        )


__all__ = ["EngineConfig"]
