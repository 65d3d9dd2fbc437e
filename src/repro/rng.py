"""Deterministic random-number-generator plumbing.

Every stochastic component in the library (LSH families, samplers,
estimators, synthetic data generators) accepts either

* ``None`` — use a fresh, OS-seeded generator,
* an ``int`` seed — deterministic and reproducible,
* an existing :class:`numpy.random.Generator` — shared stream.

:func:`ensure_rng` normalises those three spellings to a single
``numpy.random.Generator`` instance.  :func:`spawn` derives independent
child generators from a parent so that, e.g., the ``ℓ`` tables of an LSH
index use statistically independent hash functions while the whole index
remains reproducible from one seed.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence, Union

import numpy as np

from repro.errors import ValidationError

RandomState = Union[None, int, np.random.Generator]
"""Type alias accepted by every ``random_state`` / ``seed`` parameter."""


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``random_state``.

    Parameters
    ----------
    random_state:
        ``None`` for a non-deterministic generator, a non-negative integer
        seed, or an existing generator (returned unchanged).

    Raises
    ------
    ValidationError
        If ``random_state`` is a negative integer seed.
    TypeError
        If ``random_state`` is none of the accepted types.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        if random_state < 0:
            raise ValidationError(f"seed must be >= 0, got {random_state}")
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed, or a numpy Generator; "
        f"got {type(random_state).__name__}"
    )


def spawn(rng: np.random.Generator, count: int) -> Sequence[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    The children are seeded from the parent stream, so the overall
    computation stays reproducible while the children do not share state.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


def generator_state(rng: np.random.Generator) -> Dict[str, Any]:
    """A picklable snapshot of a generator's exact position in its stream.

    Together with :func:`generator_from_state` this lets stateful
    components (e.g. the streaming estimator's reservoir maintenance)
    checkpoint and resume *bit-identically*: every draw after a restore
    equals the draw the original generator would have produced.
    """
    return dict(rng.bit_generator.state)


def generator_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """Rebuild a generator from :func:`generator_state` output.

    Takes a real ``dict`` (not ``Mapping``): numpy's
    ``bit_generator.state`` setter requires one.
    """
    name = state.get("bit_generator")
    bit_generator_class = getattr(np.random, str(name), None)
    if bit_generator_class is None:
        raise ValidationError(f"unknown bit generator {name!r} in generator state")
    bit_generator = bit_generator_class()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


__all__ = [
    "RandomState",
    "ensure_rng",
    "spawn",
    "generator_state",
    "generator_from_state",
]
