"""Zipfian document generator with planted near-duplicate clusters.

The generator produces token-id documents in two stages:

1. *Base documents*: token counts drawn from a Zipf-like distribution over
   the vocabulary with Poisson-distributed document lengths.  The result
   is the familiar highly skewed pair-similarity distribution — the vast
   majority of pairs have similarity close to zero because they share at
   most a few very frequent tokens.
2. *Near-duplicate clusters*: a configurable fraction of documents are
   perturbed copies of randomly chosen base documents (token
   replacements, deletions and insertions).  These clusters populate the
   high-similarity tail so the join size at τ ∈ [0.5, 0.9] is small but
   non-zero — exactly the regime the paper's experiments focus on.

The token documents can be materialised as a binary collection (DBLP-like)
or as TF-IDF weighted vectors (NYT / PUBMED-like).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.rng import RandomState, ensure_rng
from repro.vectors.collection import VectorCollection

_WEIGHTINGS = ("binary", "counts", "tfidf")


@dataclass(frozen=True)
class PlantedClusterSpec:
    """One tier of planted similar-document clusters.

    Attributes
    ----------
    fraction:
        Fraction of the total corpus generated by this tier (as perturbed
        copies of base documents).
    cluster_size:
        Inclusive ``(low, high)`` range of copies derived from one base
        document.  Within a cluster every copy is a perturbation of the
        same base, so the cluster contributes ``C(size + 1, 2)`` pairs of
        elevated similarity.
    perturbation_levels:
        Candidate edit rates for the copies of this tier.  ``0.0`` yields
        exact duplicates (similarity 1.0); larger rates spread the
        within-cluster similarity downwards.

    Two tiers together reproduce the structure of the paper's corpora:
    a *duplicate* tier (tiny edit rates → the τ ≥ 0.8 join, pairs that an
    LSH table groups together) and a *topic* tier (moderate edit rates,
    larger clusters → the τ ≈ 0.4–0.6 join, large enough that stratum-L
    sampling sees it).
    """

    fraction: float
    cluster_size: Tuple[int, int]
    perturbation_levels: Tuple[float, ...]

    def validate(self) -> None:
        if not 0.0 <= self.fraction < 1.0:
            raise ValidationError("cluster fraction must be in [0, 1)")
        low, high = self.cluster_size
        if low < 1 or high < low:
            raise ValidationError("cluster_size must satisfy 1 <= low <= high")
        if not self.perturbation_levels:
            raise ValidationError("perturbation_levels must not be empty")
        for level in self.perturbation_levels:
            if not 0.0 <= level < 1.0:
                raise ValidationError("perturbation levels must be in [0, 1)")


@dataclass(frozen=True)
class SyntheticCorpusConfig:
    """Parameters of the synthetic corpus generator.

    Attributes
    ----------
    num_vectors:
        Total number of documents/vectors ``n``.
    vocabulary_size:
        Number of distinct tokens.
    zipf_exponent:
        Exponent of the Zipfian token-frequency distribution (≈1 for
        natural text).
    mean_length:
        Mean document length (tokens, with repetition) — 14 for the
        DBLP-like profile, larger for the TF-IDF profiles.
    min_length:
        Minimum document length.
    weighting:
        ``"binary"`` (DBLP-like), ``"counts"`` or ``"tfidf"``.
    planted_clusters:
        The planted cluster tiers (see :class:`PlantedClusterSpec`), the
        whole planted structure.  The default is one tier: 15% of the
        documents as perturbed copies, 1–4 per base document, each copy
        at one of five edit rates so the high-similarity tail covers a
        spread of similarities instead of one spike.
    """

    num_vectors: int
    vocabulary_size: int
    zipf_exponent: float = 1.05
    mean_length: float = 14.0
    min_length: int = 3
    weighting: str = "binary"
    planted_clusters: Tuple[PlantedClusterSpec, ...] = (
        PlantedClusterSpec(0.15, (1, 4), (0.02, 0.05, 0.1, 0.2, 0.35)),
    )

    def validate(self) -> None:
        """Raise :class:`ValidationError` if any parameter is out of range."""
        if self.num_vectors < 2:
            raise ValidationError("num_vectors must be >= 2")
        if self.vocabulary_size < 2:
            raise ValidationError("vocabulary_size must be >= 2")
        if self.zipf_exponent <= 0:
            raise ValidationError("zipf_exponent must be positive")
        if self.mean_length < 1:
            raise ValidationError("mean_length must be >= 1")
        if self.min_length < 1:
            raise ValidationError("min_length must be >= 1")
        if self.weighting not in _WEIGHTINGS:
            raise ValidationError(
                f"weighting must be one of {_WEIGHTINGS}, got {self.weighting!r}"
            )
        total_planted = sum(spec.fraction for spec in self.planted_clusters)
        if total_planted >= 1.0:
            raise ValidationError("planted cluster fractions must sum to less than 1")
        for spec in self.planted_clusters:
            spec.validate()


@dataclass
class SyntheticCorpus:
    """A generated corpus: token documents plus the materialised collection."""

    config: SyntheticCorpusConfig
    documents: List[List[int]]
    collection: VectorCollection
    num_base_documents: int

    @property
    def size(self) -> int:
        """Number of documents."""
        return len(self.documents)


def _zipf_probabilities(vocabulary_size: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, vocabulary_size + 1, dtype=np.float64)
    weights = ranks**-exponent
    return weights / weights.sum()


def _sample_lengths(
    count: int, mean_length: float, min_length: int, rng: np.random.Generator
) -> np.ndarray:
    lengths = rng.poisson(lam=mean_length, size=count)
    return np.maximum(lengths, min_length)


def _generate_base_documents(
    count: int,
    probabilities: np.ndarray,
    mean_length: float,
    min_length: int,
    rng: np.random.Generator,
) -> List[List[int]]:
    lengths = _sample_lengths(count, mean_length, min_length, rng)
    total_tokens = int(lengths.sum())
    flat = rng.choice(probabilities.size, size=total_tokens, p=probabilities)
    documents: List[List[int]] = []
    cursor = 0
    for length in lengths:
        documents.append(flat[cursor : cursor + int(length)].tolist())
        cursor += int(length)
    return documents


def _perturb_document(
    document: Sequence[int],
    edit_rate: float,
    probabilities: np.ndarray,
    rng: np.random.Generator,
) -> List[int]:
    """Produce a near-duplicate by replacing/deleting/inserting a fraction of tokens."""
    tokens = list(document)
    num_edits = max(1, int(round(edit_rate * len(tokens)))) if edit_rate > 0 else 0
    for _ in range(num_edits):
        operation = rng.integers(0, 3)
        if operation == 0 and tokens:  # replace
            position = int(rng.integers(0, len(tokens)))
            tokens[position] = int(rng.choice(probabilities.size, p=probabilities))
        elif operation == 1 and len(tokens) > 1:  # delete
            position = int(rng.integers(0, len(tokens)))
            tokens.pop(position)
        else:  # insert
            tokens.append(int(rng.choice(probabilities.size, p=probabilities)))
    return tokens


def _document_counts(document: Sequence[int]) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for token in document:
        counts[token] = counts.get(token, 0) + 1
    return counts


def documents_to_collection(
    documents: Sequence[Sequence[int]],
    vocabulary_size: int,
    weighting: str,
) -> VectorCollection:
    """Materialise token documents as a :class:`VectorCollection`.

    * ``"binary"`` — value 1 for every distinct token (DBLP-like).
    * ``"counts"`` — raw term frequencies.
    * ``"tfidf"`` — ``tf · (log((1 + n)/(1 + df)) + 1)`` smooth IDF
      weighting (NYT / PUBMED-like).
    """
    if weighting not in _WEIGHTINGS:
        raise ValidationError(f"weighting must be one of {_WEIGHTINGS}, got {weighting!r}")
    count_dicts = [_document_counts(document) for document in documents]
    if weighting == "binary":
        rows = [{token: 1.0 for token in counts} for counts in count_dicts]
        return VectorCollection.from_dicts(rows, dimension=vocabulary_size)
    if weighting == "counts":
        rows = [{token: float(count) for token, count in counts.items()} for counts in count_dicts]
        return VectorCollection.from_dicts(rows, dimension=vocabulary_size)
    # tf-idf
    document_frequency: Dict[int, int] = {}
    for counts in count_dicts:
        for token in counts:
            document_frequency[token] = document_frequency.get(token, 0) + 1
    num_documents = len(documents)
    idf = {
        token: math.log((1 + num_documents) / (1 + frequency)) + 1.0
        for token, frequency in document_frequency.items()
    }
    rows = [
        {token: float(count) * idf[token] for token, count in counts.items()}
        for counts in count_dicts
    ]
    return VectorCollection.from_dicts(rows, dimension=vocabulary_size)


def generate_corpus(
    config: SyntheticCorpusConfig, *, random_state: RandomState = None
) -> SyntheticCorpus:
    """Generate a :class:`SyntheticCorpus` according to ``config``."""
    config.validate()
    rng = ensure_rng(random_state)
    probabilities = _zipf_probabilities(config.vocabulary_size, config.zipf_exponent)

    specs = config.planted_clusters
    planted_per_spec = [int(round(spec.fraction * config.num_vectors)) for spec in specs]
    num_base = config.num_vectors - sum(planted_per_spec)
    if num_base < 1:
        raise ValidationError("planted cluster fractions leave no base documents")

    documents = _generate_base_documents(
        num_base, probabilities, config.mean_length, config.min_length, rng
    )

    for spec, num_planted in zip(specs, planted_per_spec):
        low, high = spec.cluster_size
        levels = np.asarray(spec.perturbation_levels, dtype=np.float64)
        produced = 0
        while produced < num_planted:
            base_index = int(rng.integers(0, num_base))
            cluster_size = int(rng.integers(low, high + 1))
            cluster_size = min(cluster_size, num_planted - produced)
            for _ in range(cluster_size):
                edit_rate = float(rng.choice(levels))
                documents.append(
                    _perturb_document(documents[base_index], edit_rate, probabilities, rng)
                )
                produced += 1

    collection = documents_to_collection(documents, config.vocabulary_size, config.weighting)
    return SyntheticCorpus(
        config=config,
        documents=documents,
        collection=collection,
        num_base_documents=num_base,
    )


__all__ = [
    "PlantedClusterSpec",
    "SyntheticCorpusConfig",
    "SyntheticCorpus",
    "generate_corpus",
    "documents_to_collection",
]
