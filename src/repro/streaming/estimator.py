"""Incremental LSH-SS estimation over a :class:`MutableLSHIndex`.

:class:`StreamingEstimator` keeps the two LSH strata of Algorithm 1
serveable while the collection mutates:

* the strata **sizes** (``N_H`` / ``N_L``) come straight from the mutable
  index's exact bookkeeping, so they always equal what a fresh batch
  build over the current collection would report;
* per stratum, a **pair reservoir** holds uniform sample pairs that are
  *repaired* on mutation instead of redrawn: a delete evicts the pairs
  touching the deleted vector (a surviving pair never changes stratum,
  because a vector's signature is immutable), while an insert adds pairs
  the reservoir has never had a chance to contain, which is tracked as
  *staleness*.

Staleness-budget semantics
--------------------------
``staleness`` of a reservoir is the fraction of the current stratum made
of pairs created after the reservoir's last (partial) refresh — exactly
the probability mass a reservoir-based sample cannot reach.  Whenever
``staleness > staleness_budget``, or evictions have emptied more than a
``staleness_budget`` fraction of the reservoir's slots, the estimator
performs a **partial resample**: it redraws only enough pairs to refill
the empty slots and to overwrite a staleness-proportional share of the
old ones, then resets the staleness counter.  The budget therefore caps
the sampling bias of the amortised path: a budget of ``b`` bounds the
unreachable probability mass by ``b`` at every query.  ``refresh()``
redraws everything and is always exact.

Every mode runs the one Algorithm-1 kernel,
:func:`repro.core.lsh_ss.estimate_strata`, with the index's live strata
sizes and ``n``; the modes differ only in the pair sources handed to it:

* ``mode="exact"`` — sample fresh pairs through the index's SampleH /
  SampleL primitives (distribution identical to a freshly built
  :class:`~repro.core.lsh_ss.LSHSSEstimator` on the same collection);
* ``mode="reservoir"`` — draw (with replacement) from the repaired
  reservoirs, touching no buckets at query time; raises
  :class:`~repro.errors.InsufficientSampleError` when a needed
  reservoir is empty or degraded while its stratum is non-empty;
* ``mode="auto"`` (default) — the reservoir path, preceded by a repair
  if mutations since the last query pushed staleness over budget.
"""

from __future__ import annotations

import math
from collections import Counter
from numbers import Integral, Real
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.base import Estimate, SimilarityJoinSizeEstimator
from repro.core.lsh_ss import Dampening, LSHSSParameters, estimate_strata
from repro.errors import InsufficientSampleError, ValidationError
from repro.lsh.table import PairSource
from repro.rng import RandomState, ensure_rng, generator_from_state, generator_state
from repro.state import StateSpec
from repro.streaming.mutable_index import MutableLSHIndex

if TYPE_CHECKING:  # the sharded facade imports this module; stay acyclic
    from repro.shard.sharded_index import ShardedMutableIndex

#: the indexes an estimator observes: one table, or the sharded facade
#: over ``S`` of them (the same strata, sampling and observer surface)
ObservedIndex = Union[MutableLSHIndex, "ShardedMutableIndex"]

_MODES = ("auto", "exact", "reservoir")

_OPTIONAL_INT = (type(None), Integral)

_RESERVOIR_STATE = StateSpec(
    "a pair-reservoir state",
    {
        "target_size": Integral,
        "left": (list, tuple),
        "right": (list, tuple),
        "unseen_pairs": Integral,
        "degraded": bool,
    },
    format=None,
)

_ESTIMATOR_STATE = StateSpec(
    "a streaming-estimator snapshot",
    {
        "sample_size_h": _OPTIONAL_INT,
        "sample_size_l": _OPTIONAL_INT,
        "answer_threshold": _OPTIONAL_INT,
        "dampening": (type(None), str, Real),
        "reservoir_size": Integral,
        "staleness_budget": Real,
        "rng": dict,
        "reservoir_h": Mapping,
        "reservoir_l": Mapping,
    },
    kind="streaming-estimator",
)


class _PairReservoir:
    """A repairable uniform sample of pairs from one stratum.

    A multiset of member ids (``_id_counts``) makes the common case of
    :meth:`drop_vector` — the deleted vector appears in no reservoir pair
    — an O(1) lookup instead of a full scan.
    """

    def __init__(self, target_size: int) -> None:
        self.target_size = int(target_size)
        self.left: List[int] = []
        self.right: List[int] = []
        self._id_counts: Counter = Counter()
        #: pairs added to the stratum since the last (partial) refresh
        self.unseen_pairs = 0
        #: set when the last refill could not sample the stratum (degenerate
        #: configuration); repairs are then retried at query time only, so a
        #: mutation never surfaces a sampling error, and not after a
        #: :meth:`StreamingEstimator.repair`, so quiesced reads stay read-only
        self.degraded = False

    def __len__(self) -> int:
        return len(self.left)

    def clear(self) -> None:
        self.left.clear()
        self.right.clear()
        self._id_counts.clear()
        self.unseen_pairs = 0
        self.degraded = False

    def set_all(self, left: np.ndarray, right: np.ndarray) -> None:
        """Replace the whole reservoir and reset staleness."""
        self.left = [int(u) for u in left]
        self.right = [int(v) for v in right]
        self._id_counts = Counter(self.left)
        self._id_counts.update(self.right)
        self.unseen_pairs = 0

    def overwrite_slot(self, slot: int, u: int, v: int) -> None:
        self._discount(self.left[slot])
        self._discount(self.right[slot])
        self.left[slot] = u
        self.right[slot] = v
        self._id_counts[u] += 1
        self._id_counts[v] += 1

    def append_pair(self, u: int, v: int) -> None:
        self.left.append(u)
        self.right.append(v)
        self._id_counts[u] += 1
        self._id_counts[v] += 1

    def _discount(self, vector_id: int) -> None:
        remaining = self._id_counts[vector_id] - 1
        if remaining:
            self._id_counts[vector_id] = remaining
        else:
            del self._id_counts[vector_id]

    def drop_vector(self, vector_id: int) -> int:
        """Evict every pair touching ``vector_id``; returns the eviction count.

        Evicts in place: the kept pairs keep their order, because
        ``auto``-mode SampleL redraws from the reservoir by position.
        """
        if self._id_counts.get(vector_id, 0) == 0:
            return 0
        slots = set()
        for side in (self.left, self.right):
            slot = -1
            try:
                while True:
                    slot = side.index(vector_id, slot + 1)
                    slots.add(slot)
            except ValueError:
                pass
        for slot in sorted(slots, reverse=True):
            self._discount(self.left.pop(slot))
            self._discount(self.right.pop(slot))
        return len(slots)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.left, dtype=np.int64),
            np.asarray(self.right, dtype=np.int64),
        )

    def state(self) -> Dict[str, object]:
        """A picklable snapshot: sampled pairs plus the staleness counters."""
        return _RESERVOIR_STATE.dump(
            target_size=self.target_size,
            left=list(self.left),
            right=list(self.right),
            unseen_pairs=self.unseen_pairs,
            degraded=self.degraded,
        )

    @classmethod
    def from_state(cls, state: Mapping[str, object], target_size: int) -> "_PairReservoir":
        """Revive a reservoir of the estimator's ``target_size``.

        Refuses states a later mutation or estimate would trip over: a
        different target size, more pairs than the target, mismatched
        pair arrays, or a negative staleness counter.
        """
        _RESERVOIR_STATE.check(state)
        if state["target_size"] != target_size:
            _RESERVOIR_STATE.refuse(
                f"target_size {state['target_size']}, expected the estimator's "
                f"reservoir_size {target_size}"
            )
        reservoir = cls(target_size)
        reservoir.left = [int(u) for u in state["left"]]
        reservoir.right = [int(v) for v in state["right"]]
        if len(reservoir.left) != len(reservoir.right):
            _RESERVOIR_STATE.refuse("mismatched pair arrays")
        if len(reservoir.left) > target_size:
            _RESERVOIR_STATE.refuse(
                f"{len(reservoir.left)} pairs for target_size {target_size}"
            )
        reservoir.unseen_pairs = int(state["unseen_pairs"])
        if reservoir.unseen_pairs < 0:
            _RESERVOIR_STATE.refuse(f"unseen_pairs {reservoir.unseen_pairs} is negative")
        reservoir._id_counts = Counter(reservoir.left)
        reservoir._id_counts.update(reservoir.right)
        reservoir.degraded = bool(state["degraded"])
        return reservoir


class StreamingEstimator(SimilarityJoinSizeEstimator):
    """LSH-SS served incrementally from a mutable index (see module docs).

    Parameters
    ----------
    index:
        The mutable index to estimate over: a :class:`MutableLSHIndex`
        or the sharded facade
        (:class:`~repro.shard.sharded_index.ShardedMutableIndex`, which
        samples and observes bit-identically).  The estimator registers
        itself as an observer, so plain ``index.insert`` / ``index.delete``
        calls keep the reservoirs repaired.
    sample_size_h / sample_size_l / answer_threshold / dampening:
        As in :class:`~repro.core.lsh_ss.LSHSSEstimator`; the sample-size
        and ``δ`` defaults track the *current* collection size ``n`` at
        query time.
    reservoir_size:
        Target number of pairs kept per stratum for the amortised path.
    staleness_budget:
        Maximum tolerated staleness fraction before a partial resample
        (see module docstring).  Must lie in ``(0, 1]`` — staleness is a
        fraction of the stratum, so a budget of 1 disables automatic
        repair entirely; larger values trade accuracy of the amortised
        path for fewer redraws.
    random_state:
        Generator for reservoir maintenance draws (estimates take their
        own ``random_state`` per call).

    ``details`` keys add ``n``, ``num_collision_pairs``,
    ``num_non_collision_pairs``, ``mode``, ``staleness_h``,
    ``staleness_l``, ``reservoir_h``, ``reservoir_l`` to the usual LSH-SS
    stratum diagnostics.
    """

    name = "LSH-SS(stream)"

    def __init__(
        self,
        index: ObservedIndex,
        *,
        sample_size_h: Optional[int] = None,
        sample_size_l: Optional[int] = None,
        answer_threshold: Optional[int] = None,
        dampening: Dampening = None,
        reservoir_size: int = 512,
        staleness_budget: float = 0.25,
        random_state: RandomState = None,
    ) -> None:
        self._configure(
            LSHSSParameters(sample_size_h, sample_size_l, answer_threshold, dampening),
            reservoir_size,
            staleness_budget,
        )
        self.index = index
        self._rng = ensure_rng(random_state)
        self._reservoir_h = _PairReservoir(self.reservoir_size)
        self._reservoir_l = _PairReservoir(self.reservoir_size)
        #: set by :meth:`repair`, cleared by the next mutation
        self._quiesced = False
        index.register_observer(self)
        self.refresh()

    def _configure(
        self, params: LSHSSParameters, reservoir_size: int, staleness_budget: float
    ) -> None:
        """Validate and set the parameters; shared by construction and restore."""
        if reservoir_size < 1:
            raise ValidationError(f"reservoir_size must be >= 1, got {reservoir_size}")
        if not 0.0 < staleness_budget <= 1.0:
            # staleness is a fraction of the stratum, capped at 1.0 — a
            # budget above 1 could never be exceeded, silently disabling
            # repair while claiming a bound
            raise ValidationError(
                f"staleness_budget must lie in (0, 1], got {staleness_budget}"
            )
        self._params = params
        self.sample_size_h = params.sample_size_h
        self.sample_size_l = params.sample_size_l
        self.answer_threshold = params.answer_threshold
        self.dampening: Dampening = params.dampening
        self.reservoir_size = int(reservoir_size)
        self.staleness_budget = float(staleness_budget)

    def close(self) -> None:
        """Detach from the index: no further mutations repair this estimator."""
        self.index.unregister_observer(self)

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------
    def to_state(self) -> Dict[str, object]:
        """A picklable checkpoint of the sampled state.

        Captures both reservoirs (pairs, staleness counters, degraded
        flags) *and* the maintenance generator's exact stream position,
        so a restored estimator replays estimates — including later
        repairs triggered by further mutations — bit-identically to one
        that was never checkpointed.  The index itself is snapshotted
        separately (:meth:`MutableLSHIndex.to_state`, which embeds this
        state for its registered estimators).
        """
        return _ESTIMATOR_STATE.dump(
            sample_size_h=self.sample_size_h,
            sample_size_l=self.sample_size_l,
            answer_threshold=self.answer_threshold,
            dampening=self.dampening,
            reservoir_size=self.reservoir_size,
            staleness_budget=self.staleness_budget,
            rng=generator_state(self._rng),
            reservoir_h=self._reservoir_h.state(),
            reservoir_l=self._reservoir_l.state(),
        )

    @classmethod
    def from_state(
        cls, index: ObservedIndex, state: Mapping[str, object]
    ) -> "StreamingEstimator":
        """Reattach a checkpointed estimator to ``index`` without redrawing.

        The reservoirs are loaded verbatim — they are repaired sampled
        state the paper's maintenance scheme paid to keep uniform, not
        disposable scratch — and the generator resumes mid-stream, so
        restore is invisible to every later estimate.
        """
        _ESTIMATOR_STATE.check(state)
        estimator = cls.__new__(cls)
        estimator._configure(
            LSHSSParameters(
                state["sample_size_h"],
                state["sample_size_l"],
                state["answer_threshold"],
                state["dampening"],
            ),
            state["reservoir_size"],
            state["staleness_budget"],
        )
        estimator.index = index
        estimator._rng = generator_from_state(dict(state["rng"]))
        estimator._reservoir_h = _PairReservoir.from_state(
            state["reservoir_h"], estimator.reservoir_size
        )
        estimator._reservoir_l = _PairReservoir.from_state(
            state["reservoir_l"], estimator.reservoir_size
        )
        estimator._quiesced = False
        index.register_observer(estimator)
        return estimator

    # ------------------------------------------------------------------
    # estimator interface
    # ------------------------------------------------------------------
    @property
    def total_pairs(self) -> int:
        return self.index.total_pairs

    @property
    def staleness_h(self) -> float:
        """Unreachable fraction of stratum H for the reservoir path."""
        return self._staleness(self._reservoir_h, self.index.num_collision_pairs)

    @property
    def staleness_l(self) -> float:
        """Unreachable fraction of stratum L for the reservoir path."""
        return self._staleness(self._reservoir_l, self.index.num_non_collision_pairs)

    # ------------------------------------------------------------------
    # observer hooks (called by MutableLSHIndex)
    # ------------------------------------------------------------------
    def on_insert(self, vector_id: int) -> None:
        """Account for the pairs the new vector added to each stratum."""
        n = self.index.size
        if n < 2:
            return
        new_h = self.index.primary_table.bucket_size_of(vector_id) - 1
        self._reservoir_h.unseen_pairs += new_h
        self._reservoir_l.unseen_pairs += (n - 1) - new_h
        self._quiesced = False
        self._repair_if_stale(retry_degraded=False)

    def on_delete(self, vector_id: int) -> None:
        """Evict reservoir pairs touching the deleted vector."""
        self._reservoir_h.drop_vector(vector_id)
        self._reservoir_l.drop_vector(vector_id)
        self._quiesced = False
        self._repair_if_stale(retry_degraded=False)

    # ------------------------------------------------------------------
    # reservoir maintenance
    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Fully redraw both reservoirs from the current strata."""
        self._refill(self._reservoir_h, full=True)
        self._refill(self._reservoir_l, full=True)

    def repair(self) -> None:
        """Run the staleness-budgeted reservoir repair, if one is due.

        This is the same repair ``mode="auto"`` estimates trigger
        lazily.  Calling it at a quiescent point (e.g. after a batch of
        updates, before handing the estimator to concurrent readers)
        makes subsequent ``auto`` estimates read-only: the reservoirs
        are already within budget, so the estimate path neither mutates
        them nor consumes the maintenance rng.  That holds for a
        reservoir this repair could not refill (degraded) too: until the
        next mutation, estimates leave it to the exact pair source
        instead of retrying the failing sampler.
        """
        self._repair_if_stale()
        self._quiesced = True

    @staticmethod
    def _staleness(reservoir: _PairReservoir, stratum_size: int) -> float:
        if stratum_size <= 0:
            return 0.0
        return min(1.0, reservoir.unseen_pairs / stratum_size)

    def _occupancy_deficit(self, reservoir: _PairReservoir) -> float:
        return 1.0 - len(reservoir) / reservoir.target_size

    def _repair_if_stale(self, *, retry_degraded: bool = True) -> None:
        for reservoir, stratum_size in (
            (self._reservoir_h, self.index.num_collision_pairs),
            (self._reservoir_l, self.index.num_non_collision_pairs),
        ):
            if stratum_size <= 0:
                reservoir.clear()
                continue
            if reservoir.degraded and not retry_degraded:
                continue  # don't re-attempt a failing sampler on every update
            if (
                self._staleness(reservoir, stratum_size) > self.staleness_budget
                or self._occupancy_deficit(reservoir) > self.staleness_budget
            ):
                self._refill(reservoir)

    def _draw_pairs(self, reservoir: _PairReservoir, count: int) -> Tuple[np.ndarray, np.ndarray]:
        if reservoir is self._reservoir_h:
            return self.index.sample_collision_pairs(count, random_state=self._rng)
        return self.index.sample_non_collision_pairs(count, random_state=self._rng)

    def _refill(self, reservoir: _PairReservoir, *, full: bool = False) -> None:
        """Partially (or fully) resample a reservoir and reset its staleness.

        The partial variant redraws ``target − occupancy`` pairs to refill
        evicted slots plus a staleness-proportional share of the occupied
        slots, overwriting uniformly chosen old entries — so the redraw
        work is proportional to how much the stratum actually changed.
        """
        stratum_size = (
            self.index.num_collision_pairs
            if reservoir is self._reservoir_h
            else self.index.num_non_collision_pairs
        )
        if stratum_size <= 0:
            reservoir.clear()
            return
        target = reservoir.target_size
        if full:
            try:
                left, right = self._draw_pairs(reservoir, target)
            except InsufficientSampleError:
                reservoir.clear()
                reservoir.degraded = True
                return
            reservoir.set_all(left, right)
            reservoir.degraded = False
            return
        deficit = target - len(reservoir)
        staleness = self._staleness(reservoir, stratum_size)
        replace = min(len(reservoir), int(math.ceil(staleness * target)))
        draw_count = deficit + replace
        if draw_count == 0:
            reservoir.unseen_pairs = 0
            return
        try:
            left, right = self._draw_pairs(reservoir, draw_count)
        except InsufficientSampleError:
            reservoir.clear()
            reservoir.degraded = True
            return
        reservoir.degraded = False
        if replace:
            positions = self._rng.choice(len(reservoir), size=replace, replace=False)
            for slot, u, v in zip(positions, left[:replace], right[:replace]):
                reservoir.overwrite_slot(int(slot), int(u), int(v))
        for u, v in zip(left[replace:], right[replace:]):
            reservoir.append_pair(int(u), int(v))
        reservoir.unseen_pairs = 0

    # ------------------------------------------------------------------
    # estimation
    # ------------------------------------------------------------------
    def estimate(
        self,
        threshold: float,
        *,
        random_state: RandomState = None,
        mode: str = "auto",
    ) -> Estimate:
        """Estimate the join size at ``threshold`` (see module docs for modes).

        Validation of ``mode`` happens here; the threshold check and the
        ``[0, M]`` clamp live in the base class.
        """
        if mode not in _MODES:
            raise ValidationError(f"mode must be one of {_MODES}, got {mode!r}")
        return super().estimate(threshold, random_state=random_state, mode=mode)

    def _estimate(
        self, threshold: float, *, random_state: RandomState = None, mode: str = "auto"
    ) -> Estimate:
        if mode == "auto":
            self._repair_if_stale(retry_degraded=not self._quiesced)
        rng = ensure_rng(random_state)
        n = self.index.size
        num_h = self.index.num_collision_pairs
        num_l = self.index.num_non_collision_pairs
        source_h, used_h = self._pair_source(self._reservoir_h, mode, is_h=True, stratum_size=num_h)
        source_l, used_l = self._pair_source(self._reservoir_l, mode, is_h=False, stratum_size=num_l)
        value, details = estimate_strata(
            self._params,
            n,
            threshold,
            rng,
            self.index.cosine_pairs,
            num_h=num_h,
            source_h=source_h,
            num_l=num_l,
            source_l=source_l,
        )
        details.update(
            n=n,
            num_collision_pairs=num_h,
            num_non_collision_pairs=num_l,
            mode=mode,
            source_h=used_h,
            source_l=used_l,
            staleness_h=self.staleness_h,
            staleness_l=self.staleness_l,
            reservoir_h=len(self._reservoir_h),
            reservoir_l=len(self._reservoir_l),
        )
        return Estimate(value=value, estimator=self.name, threshold=threshold, details=details)

    def _pair_source(
        self, reservoir: _PairReservoir, mode: str, is_h: bool, stratum_size: int
    ) -> Tuple[PairSource, str]:
        """Pair source for the kernels: reservoir draws or fresh index sampling.

        Explicit ``mode="reservoir"`` honours its bucket-free contract: an
        unusable reservoir over a non-empty stratum raises rather than
        silently sampling buckets; only ``mode="auto"`` falls back.
        """
        if mode == "reservoir" or (mode == "auto" and len(reservoir) > 0):
            left, right = reservoir.arrays()
            if left.size:

                def from_reservoir(
                    size: int, rng: np.random.Generator
                ) -> Tuple[np.ndarray, np.ndarray]:
                    positions = rng.integers(0, left.size, size=size)
                    return left[positions], right[positions]

                return from_reservoir, "reservoir"
            if mode == "reservoir" and stratum_size > 0:
                stratum = "H" if is_h else "L"
                raise InsufficientSampleError(
                    f"stratum-{stratum} reservoir is empty or degraded; call "
                    "refresh() or estimate with mode='exact'/'auto'"
                )
        if is_h:
            return (
                lambda size, rng: self.index.sample_collision_pairs(size, random_state=rng),
                "exact",
            )
        return (
            lambda size, rng: self.index.sample_non_collision_pairs(size, random_state=rng),
            "exact",
        )


__all__ = ["StreamingEstimator"]
