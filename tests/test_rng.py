"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.rng import ensure_rng, spawn


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        first = ensure_rng(42).integers(0, 1_000_000, size=10)
        second = ensure_rng(42).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(first, second)

    def test_different_seeds_differ(self):
        first = ensure_rng(1).integers(0, 1_000_000, size=10)
        second = ensure_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(first, second)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_numpy_integer_seed_accepted(self):
        assert isinstance(ensure_rng(np.int64(7)), np.random.Generator)

    def test_invalid_type_raises(self):
        with pytest.raises(TypeError, match="random_state"):
            ensure_rng("not-a-seed")

    @pytest.mark.parametrize("seed", [-1, np.int64(-2), -(2**31)])
    def test_negative_seed_is_a_validation_error(self, seed):
        # a defined error, not numpy's "expected non-negative integer"
        with pytest.raises(ValidationError, match="seed must be >= 0"):
            ensure_rng(seed)


class TestSpawn:
    def test_spawn_count(self):
        children = spawn(ensure_rng(0), 5)
        assert len(children) == 5

    def test_spawn_children_are_independent_objects(self):
        children = spawn(ensure_rng(0), 3)
        assert len({id(child) for child in children}) == 3

    def test_spawn_is_reproducible(self):
        first = [child.integers(0, 1000) for child in spawn(ensure_rng(9), 4)]
        second = [child.integers(0, 1000) for child in spawn(ensure_rng(9), 4)]
        assert first == second

    def test_spawn_children_produce_different_streams(self):
        children = spawn(ensure_rng(3), 2)
        a = children[0].integers(0, 2**32, size=8)
        b = children[1].integers(0, 2**32, size=8)
        assert not np.array_equal(a, b)

    def test_spawn_zero(self):
        assert spawn(ensure_rng(0), 0) == []

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn(ensure_rng(0), -1)


class TestGeneratorState:
    def test_round_trip_resumes_mid_stream(self):
        from repro.rng import generator_from_state, generator_state

        rng = ensure_rng(11)
        rng.integers(0, 100, size=7)  # advance past the seed position
        revived = generator_from_state(generator_state(rng))
        np.testing.assert_array_equal(
            revived.integers(0, 2**32, size=16), rng.integers(0, 2**32, size=16)
        )

    def test_state_is_a_copy(self):
        from repro.rng import generator_state

        rng = ensure_rng(0)
        state = generator_state(rng)
        rng.integers(0, 100, size=3)
        assert state == generator_state(ensure_rng(0))  # unchanged by draws

    def test_unknown_bit_generator_rejected(self):
        from repro.rng import generator_from_state

        with pytest.raises(ValueError):
            generator_from_state({"bit_generator": "NotAGenerator"})
