"""Tests for Lipton-style adaptive sampling (the SampleL subroutine)."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InsufficientSampleError, ValidationError
from repro.sampling import AdaptiveSampleResult, adaptive_sample


def make_source(population_similarities: np.ndarray):
    """Pair source drawing uniformly from a fixed population of similarities."""

    def source(batch_size, rng):
        indices = rng.integers(0, population_similarities.size, size=batch_size)
        return indices, indices  # left == right index into the population

    def evaluator(left, _right):
        return population_similarities[left]

    return source, evaluator


def one_batch_per_call(source, evaluator, threshold, answer_threshold, max_samples, batch_size,
                       rng):
    """Adaptive sampling that evaluates every batch on its own: the reference.

    Returns ``(true_count, samples_taken, reached, evaluator calls)``.
    """
    samples_taken = true_count = calls = 0
    while samples_taken < max_samples and true_count < answer_threshold:
        left, right = source(min(batch_size, max_samples - samples_taken), rng)
        calls += 1
        for is_true in np.asarray(evaluator(left, right)) >= threshold:
            samples_taken += 1
            true_count += int(is_true)
            if true_count >= answer_threshold:
                return true_count, samples_taken, True, calls
    return true_count, samples_taken, False, calls


def counting(evaluator):
    """``evaluator`` plus a list that gets one entry per call."""
    calls = []

    def wrapped(left, right):
        calls.append(len(left))
        return evaluator(left, right)

    return wrapped, calls


def assert_matches_reference(population, threshold, answer_threshold, max_samples, batch_size,
                             seed):
    """Chunked and one-batch-per-call runs agree, down to the shared generator."""
    source, evaluator = make_source(np.asarray(population, dtype=float))
    reference_rng = np.random.default_rng(seed)
    expected = one_batch_per_call(
        source, evaluator, threshold, answer_threshold, max_samples, batch_size, reference_rng
    )
    chunked_evaluator, calls = counting(evaluator)
    rng = np.random.default_rng(seed)
    result = adaptive_sample(
        source, chunked_evaluator, threshold, answer_threshold=answer_threshold,
        max_samples=max_samples, batch_size=batch_size, random_state=rng,
    )
    true_count, samples_taken, reached, batches = expected
    assert (result.true_count, result.samples_taken, result.reached_answer_threshold) == (
        true_count, samples_taken, reached,
    )
    assert rng.integers(0, 2**62) == reference_rng.integers(0, 2**62)
    assert len(calls) <= math.ceil(math.log2(batches + 1))
    return result, calls


class TestChunkedEvaluation:
    """Chunks of 1, 2, 4, … batches give the answers of one batch per call."""

    @settings(max_examples=200, deadline=None)
    @given(
        population=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
        threshold=st.floats(0.0, 1.0),
        answer_threshold=st.integers(1, 40),
        max_samples=st.integers(1, 2_000),
        batch_size=st.integers(1, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(population=[0.5], threshold=0.9, answer_threshold=3, max_samples=37,
             batch_size=1, seed=0)
    @example(population=[0.9, 0.1], threshold=0.5, answer_threshold=40, max_samples=1_999,
             batch_size=7, seed=3)
    def test_matches_one_batch_per_call(self, population, threshold, answer_threshold,
                                        max_samples, batch_size, seed):
        assert_matches_reference(
            population, threshold, answer_threshold, max_samples, batch_size, seed
        )

    # every pair is true (two of them, so each draw moves the generator) and
    # batches hold 10, so the δ-th pair is in batch ⌈δ/10⌉;
    # chunks are batches 1 | 2–3 | 4–7 | 8–15
    @pytest.mark.parametrize(
        "answer_threshold, batch_index",
        [(5, 1), (15, 2), (30, 3), (35, 4), (70, 7), (80, 8), (150, 15)],
    )
    def test_delta_in_first_and_last_batch_of_a_chunk(self, answer_threshold, batch_index):
        result, calls = assert_matches_reference(
            [0.9, 0.8], 0.5, answer_threshold, 10_000, 10, seed=4
        )
        assert result.samples_taken == answer_threshold
        assert len(calls) == math.ceil(math.log2(batch_index + 1))

    def test_budget_run_makes_one_call_per_chunk(self):
        # 45 batches of 10 and one of 3: chunks of 1, 2, 4, 8, 16 and 15 batches
        result, calls = assert_matches_reference([0.1, 0.2], 0.5, 5, 453, 10, seed=0)
        assert not result.reached_answer_threshold
        assert calls == [10, 20, 40, 80, 160, 143]

    def test_failed_draw_past_the_stop_is_not_raised(self):
        population = np.full(10, 0.9)
        draws = []

        def source(size, rng):
            draws.append(size)
            if len(draws) == 3:
                raise InsufficientSampleError("third draw fails")
            indices = rng.integers(0, population.size, size=size)
            return indices, indices

        def evaluator(left, _right):
            return population[left]

        # δ = 15 lies in batch 2; chunk 2 also asks for batch 3, which fails
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=15, max_samples=100, batch_size=10,
            random_state=0,
        )
        assert (result.true_count, result.samples_taken) == (15, 15)
        # δ = 25 needs batch 3, so its failure is raised
        draws.clear()
        with pytest.raises(InsufficientSampleError):
            adaptive_sample(
                source, evaluator, 0.5, answer_threshold=25, max_samples=100, batch_size=10,
                random_state=0,
            )


class TestAdaptiveSample:
    def test_terminates_by_answer_threshold_when_true_pairs_common(self):
        population = np.concatenate([np.full(500, 0.9), np.full(500, 0.1)])
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=10, max_samples=10_000, random_state=0
        )
        assert result.reached_answer_threshold
        assert result.true_count == 10
        assert result.samples_taken <= 10_000

    def test_exact_sample_index_of_delta_th_true_pair(self):
        # half the population is true: the 5th true pair is found near sample
        # index 10, and the run stops exactly there, as one pair at a time would
        population = np.array([0.9, 0.1] * 50)
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=5, max_samples=1000, random_state=1
        )
        reference = one_batch_per_call(
            source, evaluator, 0.5, 5, 1000, 256, np.random.default_rng(1)
        )
        assert result.true_count == 5
        assert result.samples_taken == reference[1]

    def test_budget_exhausted_returns_partial_count(self):
        population = np.full(1000, 0.1)  # no true pairs at threshold 0.5
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=5, max_samples=200, random_state=0
        )
        assert not result.reached_answer_threshold
        assert result.true_count == 0
        assert result.samples_taken == 200

    def test_scaled_estimate_when_reliable(self):
        population = np.concatenate([np.full(100, 0.9), np.full(900, 0.1)])
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=20, max_samples=50_000, random_state=3
        )
        assert result.reached_answer_threshold
        estimate = result.estimate(population_size=1_000_000)
        # true fraction is 10%, so the estimate should be near 100_000
        assert estimate == pytest.approx(100_000, rel=0.5)

    def test_safe_lower_bound_when_unreliable(self):
        population = np.concatenate([np.full(2, 0.9), np.full(9998, 0.1)])
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=50, max_samples=300, random_state=0
        )
        assert not result.reached_answer_threshold
        estimate = result.estimate(population_size=10**9)
        assert estimate == result.true_count  # not scaled up

    def test_dampened_estimate(self):
        result = AdaptiveSampleResult(
            true_count=4,
            samples_taken=1000,
            reached_answer_threshold=False,
            answer_threshold=10,
            max_samples=1000,
        )
        plain = result.estimate(1_000_000)
        dampened = result.estimate(1_000_000, dampening=0.5)
        assert plain == 4
        assert dampened == pytest.approx(4 * 0.5 * 1_000_000 / 1000)

    def test_dampening_out_of_range(self):
        result = AdaptiveSampleResult(
            true_count=1,
            samples_taken=10,
            reached_answer_threshold=False,
            answer_threshold=5,
            max_samples=10,
        )
        with pytest.raises(ValidationError):
            result.estimate(100, dampening=1.5)

    def test_dampening_ignored_when_reliable(self):
        result = AdaptiveSampleResult(
            true_count=10,
            samples_taken=100,
            reached_answer_threshold=True,
            answer_threshold=10,
            max_samples=1000,
        )
        assert result.estimate(10_000, dampening=0.1) == pytest.approx(1000.0)

    def test_invalid_parameters(self):
        source, evaluator = make_source(np.full(10, 0.5))
        with pytest.raises(ValidationError):
            adaptive_sample(source, evaluator, 0.5, answer_threshold=0, max_samples=10)
        with pytest.raises(ValidationError):
            adaptive_sample(source, evaluator, 0.5, answer_threshold=1, max_samples=0)

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_refused(self, batch_size):
        # a batch of 0 pairs never advances the run, so it must not start
        source, evaluator = make_source(np.full(10, 0.5))
        with pytest.raises(ValidationError, match="batch_size"):
            adaptive_sample(
                source, evaluator, 0.5, answer_threshold=1, max_samples=10,
                batch_size=batch_size,
            )

    def test_samples_never_exceed_budget(self):
        population = np.full(100, 0.1)
        source, evaluator = make_source(population)
        result = adaptive_sample(
            source, evaluator, 0.5, answer_threshold=3, max_samples=77, random_state=0,
            batch_size=10,
        )
        assert result.samples_taken == 77

    def test_estimator_unbiased_over_repeats(self):
        """Scaled-up adaptive estimates average out near the true count."""
        population = np.concatenate([np.full(50, 0.95), np.full(950, 0.05)])
        source, evaluator = make_source(population)
        population_size = 1000
        estimates = []
        for seed in range(40):
            result = adaptive_sample(
                source,
                evaluator,
                0.5,
                answer_threshold=5,
                max_samples=2000,
                random_state=seed,
            )
            estimates.append(result.estimate(population_size))
        assert np.mean(estimates) == pytest.approx(50, rel=0.35)
