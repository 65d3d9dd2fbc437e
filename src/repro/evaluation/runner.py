"""Experiment runner: repeated trials over threshold grids with timing.

The paper runs every estimator 100 times per threshold and reports the
error/variance statistics of :mod:`repro.evaluation.metrics`.  The runner
owns the trial loop, the deterministic per-trial seeding, and the wiring
to the exact ground-truth oracle so every benchmark is a few lines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.base import SimilarityJoinSizeEstimator
from repro.errors import ValidationError
from repro.evaluation.metrics import TrialSummary, summarize_trials
from repro.join.histogram import SimilarityHistogram
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection


@dataclass
class SweepRecord:
    """Result of one (estimator, threshold) cell of a sweep."""

    estimator: str
    threshold: float
    true_size: int
    estimates: List[float]
    mean_runtime_seconds: float
    summary: TrialSummary = field(init=False)

    def __post_init__(self) -> None:
        self.summary = summarize_trials(self.estimates, self.true_size)

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "estimator": self.estimator,
            "threshold": self.threshold,
            "true_size": self.true_size,
            "mean_runtime_seconds": self.mean_runtime_seconds,
        }
        row.update(self.summary.as_dict())
        return row


class ExperimentRunner:
    """Run estimators over a threshold grid with repeated trials.

    Parameters
    ----------
    collection:
        The vector collection under evaluation (used to build the exact
        ground truth once).
    thresholds:
        The similarity thresholds to sweep.
    num_trials:
        Trials per (estimator, threshold) cell; the paper uses 100.
    histogram:
        Optional pre-built :class:`SimilarityHistogram`; built lazily
        otherwise.
    random_state:
        Master seed; trial ``t`` of every estimator uses seed
        ``master + t`` so different estimators see different randomness
        but the whole sweep is reproducible.
    """

    def __init__(
        self,
        collection: VectorCollection,
        thresholds: Sequence[float],
        *,
        num_trials: int = 20,
        histogram: Optional[SimilarityHistogram] = None,
        random_state: RandomState = 0,
    ):
        if num_trials < 1:
            raise ValidationError("num_trials must be >= 1")
        if not thresholds:
            raise ValidationError("at least one threshold is required")
        self.collection = collection
        self.thresholds = [float(t) for t in thresholds]
        self.num_trials = int(num_trials)
        self._histogram = histogram
        self._master_seed = int(ensure_rng(random_state).integers(0, 2**31 - 1))

    # ------------------------------------------------------------------
    @property
    def histogram(self) -> SimilarityHistogram:
        """The ground-truth histogram, exact on its bin grid (built lazily, then cached)."""
        if self._histogram is None:
            self._histogram = SimilarityHistogram(self.collection)
        return self._histogram

    def true_sizes(self) -> Dict[float, int]:
        """Exact ``J(τ)`` for every threshold in the sweep."""
        return {threshold: self.histogram.join_size(threshold) for threshold in self.thresholds}

    # ------------------------------------------------------------------
    def run_estimator(
        self,
        estimator: SimilarityJoinSizeEstimator,
        *,
        thresholds: Optional[Sequence[float]] = None,
        num_trials: Optional[int] = None,
    ) -> List[SweepRecord]:
        """Sweep one estimator; returns one record per threshold."""
        thresholds = [float(t) for t in (thresholds or self.thresholds)]
        num_trials = int(num_trials or self.num_trials)
        records: List[SweepRecord] = []
        for threshold in thresholds:
            true_size = self.histogram.join_size(threshold)
            estimates: List[float] = []
            elapsed = 0.0
            for trial in range(num_trials):
                seed = self._master_seed + trial
                start = time.perf_counter()
                estimate = estimator.estimate(threshold, random_state=seed)
                elapsed += time.perf_counter() - start
                estimates.append(estimate.value)
            records.append(
                SweepRecord(
                    estimator=estimator.name,
                    threshold=threshold,
                    true_size=int(true_size),
                    estimates=estimates,
                    mean_runtime_seconds=elapsed / num_trials,
                )
            )
        return records

    def run(
        self,
        estimators: Sequence[SimilarityJoinSizeEstimator]
        | Mapping[str, SimilarityJoinSizeEstimator],
        *,
        num_trials: Optional[int] = None,
    ) -> List[SweepRecord]:
        """Sweep several estimators over the full threshold grid."""
        if isinstance(estimators, Mapping):
            items = list(estimators.values())
        else:
            items = list(estimators)
        if not items:
            raise ValidationError("at least one estimator is required")
        records: List[SweepRecord] = []
        for estimator in items:
            records.extend(self.run_estimator(estimator, num_trials=num_trials))
        return records


def records_by_estimator(records: Sequence[SweepRecord]) -> Dict[str, List[SweepRecord]]:
    """Group sweep records by estimator name, preserving threshold order."""
    grouped: Dict[str, List[SweepRecord]] = {}
    for record in records:
        grouped.setdefault(record.estimator, []).append(record)
    return grouped


__all__ = ["ExperimentRunner", "SweepRecord", "records_by_estimator"]
