"""Lipton-style adaptive sampling (the SampleL subroutine).

Adaptive sampling [Lipton, Naughton, Schneider 1990] terminates when the
*answer* accumulated from the sample reaches a threshold ``δ`` rather
than when a fixed number of samples has been drawn.  LSH-SS runs this
procedure in stratum L: if ``δ`` true pairs are found within the budget
``m_L`` the scaled-up estimate is reliable; otherwise the procedure falls
back to a safe lower bound (optionally dampened).

The implementation is generic over a *pair source* so that the same code
serves every LSH-SS estimator: static, virtual-bucket, general-join,
streaming, sharded and process-cluster.

Pairs are drawn in batches of a fixed size but evaluated in chunks of
1, 2, 4, … batches, one similarity call per chunk, so a run to the
budget of ``B`` batches makes ``⌈log₂(B + 1)⌉`` calls instead of ``B``.
The answer is that of one batch per call: the ``δ``-th true pair is
located within its chunk, and the generator is put back to where it
stood after the batch holding that pair.  Batches drawn past it cost
work, never a different answer or stream.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import numpy as np

from repro.errors import InsufficientSampleError, ValidationError
from repro.rng import RandomState, ensure_rng

PairBatchSource = Callable[[int, np.random.Generator], Tuple[np.ndarray, np.ndarray]]
"""Callable ``(size, rng) -> (left, right)``: ``size`` pairs as two index arrays.

A pure function of ``(size, rng)``: the pairs depend only on the size
and the generator's position, and the only state a call changes is that
position.  :func:`adaptive_sample` relies on this to undo draws past its
stopping point by restoring the generator."""

SimilarityEvaluator = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Callable mapping ``(left, right)`` index arrays to similarity values.

A value depends only on its own ordered pair, so
:func:`repro.core.lsh_ss.estimate_strata` evaluates each distinct ordered
pair once per call and scatters the values back to the input order."""


@dataclass(frozen=True)
class AdaptiveSampleResult:
    """Outcome of one adaptive-sampling run.

    Attributes
    ----------
    true_count:
        Number of sampled pairs satisfying the threshold (``n_L``).
    samples_taken:
        Number of pairs examined (``i``).
    reached_answer_threshold:
        ``True`` when the run terminated because ``true_count ≥ δ``
        (the reliable case); ``False`` when the sample budget ran out.
    answer_threshold:
        The ``δ`` used.
    max_samples:
        The budget ``m_L`` used.
    """

    true_count: int
    samples_taken: int
    reached_answer_threshold: bool
    answer_threshold: int
    max_samples: int

    def estimate(self, population_size: int, *, dampening: float | None = None) -> float:
        """Turn the run into a join-size estimate for a ``population_size`` stratum.

        * Reliable case (``reached_answer_threshold``): scale up by
          ``population / samples_taken`` (Theorem 2.1/2.2 of adaptive
          sampling provide the error bounds).
        * Unreliable case: return the safe lower bound ``true_count``, or
          the dampened scale-up ``true_count · c_s · population / max_samples``
          when a dampening factor ``0 < c_s ≤ 1`` is supplied (§5.1.2).
        """
        if self.reached_answer_threshold:
            return self.true_count * (population_size / max(self.samples_taken, 1))
        if dampening is None:
            return float(self.true_count)
        if not 0.0 < dampening <= 1.0:
            raise ValidationError(f"dampening factor must be in (0, 1], got {dampening}")
        return self.true_count * dampening * (population_size / max(self.max_samples, 1))


def adaptive_sample(
    pair_source: PairBatchSource,
    similarity_evaluator: SimilarityEvaluator,
    threshold: float,
    *,
    answer_threshold: int,
    max_samples: int,
    batch_size: int | None = None,
    random_state: RandomState = None,
) -> AdaptiveSampleResult:
    """Run adaptive sampling until ``δ`` true pairs are seen or the budget is spent.

    Parameters
    ----------
    pair_source:
        A :data:`PairBatchSource` of uniform pairs from the target stratum
        (a pure function of ``(size, rng)``).
    similarity_evaluator:
        A :data:`SimilarityEvaluator`: one value per pair, each depending
        only on its own pair.
    threshold:
        The similarity threshold ``τ``.
    answer_threshold:
        ``δ`` — stop as soon as this many true pairs have been found.
    max_samples:
        ``m_L`` — the maximum number of pairs to examine.
    batch_size:
        The size of each ``pair_source`` draw (at least 1; default
        ``min(m_L, max(256, 8δ))``).  Draws are evaluated in chunks of
        1, 2, 4, … batches, one ``similarity_evaluator`` call per chunk,
        and the answer is the one of drawing pairs one at a time: the
        sample index of the ``δ``-th true pair is recovered within its
        chunk.
    random_state:
        Seed or generator.  A chunk may draw batches past the stopping
        point; the generator is then put back where it stood after the
        batch holding the ``δ``-th true pair, so a shared generator
        continues exactly as if no batch past it had been drawn.
    """
    if answer_threshold < 1:
        raise ValidationError(f"answer_threshold (δ) must be >= 1, got {answer_threshold}")
    if max_samples < 1:
        raise ValidationError(f"max_samples (m_L) must be >= 1, got {max_samples}")
    if batch_size is not None and batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    rng = ensure_rng(random_state)
    if batch_size is None:
        batch_size = int(min(max_samples, max(256, 8 * answer_threshold)))
    samples_taken = 0
    true_count = 0
    chunk_batches = 1
    while samples_taken < max_samples:
        lefts: List[np.ndarray] = []
        rights: List[np.ndarray] = []
        batch_ends: List[int] = []
        states: List[Dict[str, Any]] = []
        drawn = samples_taken
        failure: InsufficientSampleError | None = None
        while len(lefts) < chunk_batches and drawn < max_samples:
            try:
                left, right = pair_source(int(min(batch_size, max_samples - drawn)), rng)
            except InsufficientSampleError as error:
                # one batch per call would not reach a draw past the
                # stopping point, so raise only if δ is not met before it
                if not lefts:
                    raise
                failure = error
                break
            lefts.append(left)
            rights.append(right)
            drawn += len(left)
            batch_ends.append(drawn - samples_taken)
            states.append(rng.bit_generator.state)
        similarities = similarity_evaluator(np.concatenate(lefts), np.concatenate(rights))
        is_true = np.asarray(similarities) >= threshold
        cumulative = np.cumsum(is_true.astype(np.int64)) + true_count
        hit = np.flatnonzero(cumulative >= answer_threshold)
        if hit.size > 0:
            # The δ-th true pair appeared at position hit[0] of this chunk;
            # only the samples up to and including it count toward i, and
            # the generator goes back to just after the batch holding it.
            position = int(hit[0])
            rng.bit_generator.state = states[bisect_right(batch_ends, position)]
            return AdaptiveSampleResult(
                true_count=int(cumulative[position]),
                samples_taken=samples_taken + position + 1,
                reached_answer_threshold=True,
                answer_threshold=answer_threshold,
                max_samples=max_samples,
            )
        if failure is not None:
            raise failure
        samples_taken += int(is_true.size)
        true_count = int(cumulative[-1]) if is_true.size else true_count
        chunk_batches *= 2
    return AdaptiveSampleResult(
        true_count=true_count,
        samples_taken=samples_taken,
        reached_answer_threshold=true_count >= answer_threshold,
        answer_threshold=answer_threshold,
        max_samples=max_samples,
    )


__all__ = ["AdaptiveSampleResult", "adaptive_sample", "PairBatchSource", "SimilarityEvaluator"]
