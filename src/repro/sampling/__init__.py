"""Sampling substrate: pair samplers and adaptive sampling.

The estimators in :mod:`repro.core` are thin policies on top of these
reusable sampling primitives:

* :mod:`~repro.sampling.pairs` — uniform pair sampling with replacement
  (RS(pop)) and cross sampling (RS(cross), Haas et al.).
* :mod:`~repro.sampling.adaptive` — Lipton-style adaptive sampling, the
  subroutine LSH-SS runs in stratum L.
"""

from repro.sampling.pairs import CrossPairSampler, UniformPairSampler
from repro.sampling.adaptive import AdaptiveSampleResult, adaptive_sample

__all__ = [
    "UniformPairSampler",
    "CrossPairSampler",
    "AdaptiveSampleResult",
    "adaptive_sample",
]
