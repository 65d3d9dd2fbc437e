"""LSH-SS: stratified sampling over the LSH-induced strata (Algorithm 1, §5).

The LSH table partitions all ``M`` pairs into

* **stratum H** — pairs that share a bucket (``N_H`` of them), where true
  pairs are comparatively easy to hit (``P(T|H)`` stays a few percent even
  at τ = 0.9), and
* **stratum L** — the remaining ``N_L = M − N_H`` pairs, where true pairs
  are plentiful only at low thresholds.

LSH-SS estimates the two strata independently and adds the estimates
(Eq. 7):

* ``SampleH`` — plain uniform random sampling of bucket pairs, scaled up
  by ``N_H / m_H``.
* ``SampleL`` — Lipton adaptive sampling with answer threshold ``δ``; if
  ``δ`` true pairs are found within the budget ``m_L`` the scaled-up
  estimate is used, otherwise the safe lower bound ``n_L`` (or the
  dampened scale-up ``n_L · c_s · N_L / m_L`` for LSH-SS(D)).

The default parameters follow §5.1: ``m_H = m_L = n`` and ``δ = log2 n``;
LSH-SS(D) uses ``c_s = n_L / δ`` (§6.1).

This module is the one home of Algorithm 1.  :class:`LSHSSParameters`
validates ``m_H``, ``m_L``, ``δ`` and the dampening once and resolves the
§5.1 defaults; :func:`estimate_strata` runs SampleH then SampleL and sums
them.  Every LSH-SS estimator — this module's single-table one, the
virtual-bucket (:mod:`repro.core.multi_table`), general-join
(:mod:`repro.core.general_join`), streaming (:mod:`repro.streaming`) and
sharded (:mod:`repro.shard.merge`) ones — supplies only its strata sizes,
its pair sources, the ``n`` its defaults follow, and its extra details.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Any, Dict, Literal, Optional, Tuple, Union

import numpy as np

from repro.core.base import Estimate, SimilarityJoinSizeEstimator
from repro.errors import ValidationError
from repro.lsh.table import LSHTable, PairSource
from repro.rng import RandomState, ensure_rng
from repro.sampling.adaptive import AdaptiveSampleResult, SimilarityEvaluator, adaptive_sample
from repro.vectors.similarity import cosine_pairs

Dampening = Union[None, float, Literal["auto"]]
"""``None`` → plain LSH-SS (safe lower bound).  A float in (0, 1] → fixed
``c_s``.  ``"auto"`` → the paper's LSH-SS(D) choice ``c_s = n_L / δ``."""


def default_sample_size(num_vectors: int) -> int:
    """The paper's per-stratum budget: ``n`` pairs."""
    return max(1, int(num_vectors))


def default_answer_threshold(num_vectors: int) -> int:
    """The paper's ``δ = log2 n`` (at least 1)."""
    return max(1, int(round(math.log2(max(num_vectors, 2)))))


@dataclass(frozen=True)
class LSHSSParameters:
    """``m_H``, ``m_L``, ``δ`` and the dampening, validated at construction.

    ``None`` sizes follow the §5.1 defaults for the ``n`` handed to
    :meth:`resolve`.  Sizes must be integers ``≥ 1`` (a ``bool`` is not
    one); the dampening must be ``None``, ``"auto"`` or a real number in
    ``(0, 1]``.  Anything else raises
    :class:`~repro.errors.ValidationError`.
    """

    sample_size_h: Optional[int] = None
    sample_size_l: Optional[int] = None
    answer_threshold: Optional[int] = None
    dampening: Dampening = None

    def __post_init__(self) -> None:
        for name, value in (
            ("sample_size_h (m_H)", self.sample_size_h),
            ("sample_size_l (m_L)", self.sample_size_l),
            ("answer_threshold (δ)", self.answer_threshold),
        ):
            if value is not None and (
                isinstance(value, bool) or not (isinstance(value, Integral) and value >= 1)
            ):
                raise ValidationError(f"{name} must be an integer >= 1, got {value!r}")
        dampening = self.dampening
        if not (
            dampening is None
            or dampening == "auto"
            or (isinstance(dampening, Real) and 0.0 < dampening <= 1.0)
        ):
            raise ValidationError(f"dampening must be in (0, 1] or 'auto', got {dampening}")

    def resolve(self, num_vectors: int) -> Tuple[int, int, int]:
        """``(m_H, m_L, δ)`` with the §5.1 defaults for ``n = num_vectors``."""
        return (
            default_sample_size(num_vectors) if self.sample_size_h is None else self.sample_size_h,
            default_sample_size(num_vectors) if self.sample_size_l is None else self.sample_size_l,
            default_answer_threshold(num_vectors)
            if self.answer_threshold is None
            else self.answer_threshold,
        )


@dataclass(frozen=True)
class StratumHResult:
    """Outcome of the SampleH subroutine."""

    estimate: float
    true_in_sample: int
    sample_size: int
    stratum_size: int


@dataclass(frozen=True)
class StratumLResult:
    """Outcome of the SampleL subroutine."""

    estimate: float
    true_in_sample: int
    samples_taken: int
    stratum_size: int
    reached_answer_threshold: bool
    dampening_used: Optional[float]


def sample_stratum_h(
    stratum_size: int,
    pair_source: PairSource,
    similarity_evaluator: SimilarityEvaluator,
    threshold: float,
    sample_size: int,
    rng: np.random.Generator,
) -> StratumHResult:
    """SampleH: uniform random sampling within stratum H, scaled up.

    ``pair_source`` must return uniform pairs *from stratum H*; for the
    single-table estimator that is weighted-bucket sampling, for the
    virtual-bucket estimator it is uniform sampling from the enumerated
    virtual pairs.
    """
    if stratum_size <= 0:
        return StratumHResult(estimate=0.0, true_in_sample=0, sample_size=0, stratum_size=0)
    if sample_size < 1:
        raise ValidationError(f"sample_size (m_H) must be >= 1, got {sample_size}")
    left, right = pair_source(sample_size, rng)
    similarities = similarity_evaluator(left, right)
    true_in_sample = int(np.count_nonzero(np.asarray(similarities) >= threshold))
    estimate = true_in_sample * (stratum_size / sample_size)
    return StratumHResult(
        estimate=float(estimate),
        true_in_sample=true_in_sample,
        sample_size=sample_size,
        stratum_size=stratum_size,
    )


def sample_stratum_l(
    stratum_size: int,
    pair_source: PairSource,
    similarity_evaluator: SimilarityEvaluator,
    threshold: float,
    answer_threshold: int,
    max_samples: int,
    dampening: Dampening,
    rng: np.random.Generator,
) -> StratumLResult:
    """SampleL: adaptive sampling within stratum L with safe fallback.

    When the adaptive run terminates by reaching ``δ`` true pairs the
    scaled-up estimate ``n_L · N_L / i`` is returned.  Otherwise the safe
    lower bound ``n_L`` is returned, or the dampened scale-up when a
    dampening factor is configured (LSH-SS(D)).
    """
    if stratum_size <= 0:
        return StratumLResult(
            estimate=0.0,
            true_in_sample=0,
            samples_taken=0,
            stratum_size=0,
            reached_answer_threshold=True,
            dampening_used=None,
        )
    result: AdaptiveSampleResult = adaptive_sample(
        pair_source,
        similarity_evaluator,
        threshold,
        answer_threshold=answer_threshold,
        max_samples=max_samples,
        random_state=rng,
    )
    dampening_value: Optional[float] = None
    if not result.reached_answer_threshold and dampening is not None:
        if dampening == "auto":
            if result.true_count > 0:
                dampening_value = min(result.true_count / answer_threshold, 1.0)
        else:
            dampening_value = float(dampening)
            if not 0.0 < dampening_value <= 1.0:
                raise ValidationError(
                    f"dampening factor must lie in (0, 1], got {dampening_value}"
                )
    estimate = result.estimate(stratum_size, dampening=dampening_value)
    return StratumLResult(
        estimate=float(estimate),
        true_in_sample=result.true_count,
        samples_taken=result.samples_taken,
        stratum_size=stratum_size,
        reached_answer_threshold=result.reached_answer_threshold,
        dampening_used=dampening_value,
    )


def _distinct_pair_evaluator(evaluator: SimilarityEvaluator) -> SimilarityEvaluator:
    """``evaluator`` called once per distinct ordered pair of each call.

    SampleH and SampleL draw with replacement, often from a few hundred
    pairs, so one call repeats many pairs.  Each pair becomes one int64
    key; one sort finds the repeats, the distinct pairs go to
    ``evaluator`` in key order and the values are scattered back to the
    input order.  A call without repeats, or with an id that is negative
    or too large for a collision-free key, goes through unchanged, so
    the evaluator still refuses a bad id.  ``(u, v)`` and ``(v, u)`` stay
    apart: a general join pairs two collections.
    """

    def evaluate(left_ids: np.ndarray, right_ids: np.ndarray) -> np.ndarray:
        left = np.asarray(left_ids, dtype=np.int64)
        right = np.asarray(right_ids, dtype=np.int64)
        if left.shape != right.shape or left.size < 2:
            return evaluator(left, right)
        span = int(right.max()) + 1
        if left.min() < 0 or right.min() < 0 or (int(left.max()) + 1) * span > 2**63:
            return evaluator(left, right)
        keys = left * span + right
        order = np.argsort(keys)
        sorted_keys = keys[order]
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
        if first.all():
            return evaluator(left, right)
        distinct = order[first]
        values = evaluator(left[distinct], right[distinct])
        inverse = np.empty(keys.size, dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        return values[inverse]

    return evaluate


def estimate_strata(
    params: LSHSSParameters,
    num_vectors: int,
    threshold: float,
    rng: np.random.Generator,
    similarity_evaluator: SimilarityEvaluator,
    *,
    num_h: int,
    source_h: PairSource,
    num_l: int,
    source_l: PairSource,
) -> Tuple[float, Dict[str, Any]]:
    """Algorithm 1: SampleH over stratum H, then SampleL over stratum L.

    ``params`` are resolved against ``num_vectors``; a pair source is
    only called when its stratum is non-empty.  Returns the summed
    estimate and the details every LSH-SS estimator reports:
    ``stratum_h`` / ``stratum_l`` (their estimates), ``true_in_sample_h``
    / ``true_in_sample_l``, ``samples_taken_l``,
    ``reached_answer_threshold`` and ``dampening_used``.  Each call of
    ``similarity_evaluator`` receives each of its distinct ordered pairs
    once; the number of calls and the draws do not change.
    """
    similarity_evaluator = _distinct_pair_evaluator(similarity_evaluator)
    sample_size_h, sample_size_l, answer_threshold = params.resolve(num_vectors)
    stratum_h = sample_stratum_h(
        num_h, source_h, similarity_evaluator, threshold, sample_size_h, rng
    )
    stratum_l = sample_stratum_l(
        num_l,
        source_l,
        similarity_evaluator,
        threshold,
        answer_threshold,
        sample_size_l,
        params.dampening,
        rng,
    )
    return stratum_h.estimate + stratum_l.estimate, {
        "stratum_h": stratum_h.estimate,
        "stratum_l": stratum_l.estimate,
        "true_in_sample_h": stratum_h.true_in_sample,
        "true_in_sample_l": stratum_l.true_in_sample,
        "samples_taken_l": stratum_l.samples_taken,
        "reached_answer_threshold": stratum_l.reached_answer_threshold,
        "dampening_used": stratum_l.dampening_used,
    }


class LSHSSEstimator(SimilarityJoinSizeEstimator):
    """LSH-SS / LSH-SS(D): the paper's main estimator (Algorithm 1).

    Parameters
    ----------
    table:
        The extended LSH table over the collection.
    sample_size_h:
        ``m_H`` — pairs sampled from stratum H; defaults to ``n``.
    sample_size_l:
        ``m_L`` — maximum pairs examined in stratum L; defaults to ``n``.
    answer_threshold:
        ``δ`` — number of true pairs at which SampleL's estimate is
        considered reliable; defaults to ``log2 n``.
    dampening:
        ``None`` (plain LSH-SS), a fixed ``c_s ∈ (0, 1]``, or ``"auto"``
        for the paper's LSH-SS(D) choice ``c_s = n_L / δ``.

    ``details`` keys: ``stratum_h`` / ``stratum_l`` (their estimates),
    ``true_in_sample_h`` / ``true_in_sample_l``, ``samples_taken_l``,
    ``reached_answer_threshold``, ``dampening_used``,
    ``num_collision_pairs``, ``num_non_collision_pairs``.
    """

    name = "LSH-SS"

    def __init__(
        self,
        table: LSHTable,
        *,
        sample_size_h: Optional[int] = None,
        sample_size_l: Optional[int] = None,
        answer_threshold: Optional[int] = None,
        dampening: Dampening = None,
    ) -> None:
        self.table = table
        self.collection = table.collection
        self._params = LSHSSParameters(sample_size_h, sample_size_l, answer_threshold, dampening)
        self.sample_size_h, self.sample_size_l, self.answer_threshold = self._params.resolve(
            self.collection.size
        )
        self.dampening: Dampening = dampening
        if dampening is not None:
            self.name = "LSH-SS(D)"

    @property
    def total_pairs(self) -> int:
        return self.table.total_pairs

    # ------------------------------------------------------------------
    def _similarities(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return cosine_pairs(self.collection, left, right)

    def _estimate(self, threshold: float, *, random_state: RandomState = None) -> Estimate:
        value, details = estimate_strata(
            self._params,
            self.collection.size,
            threshold,
            ensure_rng(random_state),
            self._similarities,
            num_h=self.table.num_collision_pairs,
            source_h=lambda size, generator: self.table.sample_collision_pairs(
                size, random_state=generator
            ),
            num_l=self.table.num_non_collision_pairs,
            source_l=lambda size, generator: self.table.sample_non_collision_pairs(
                size, random_state=generator
            ),
        )
        details["num_collision_pairs"] = self.table.num_collision_pairs
        details["num_non_collision_pairs"] = self.table.num_non_collision_pairs
        return Estimate(value=value, estimator=self.name, threshold=threshold, details=details)


__all__ = [
    "LSHSSEstimator",
    "LSHSSParameters",
    "estimate_strata",
    "StratumHResult",
    "StratumLResult",
    "sample_stratum_h",
    "sample_stratum_l",
    "default_sample_size",
    "default_answer_threshold",
    "Dampening",
]
