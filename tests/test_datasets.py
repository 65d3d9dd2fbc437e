"""Tests for the synthetic data substrate (generator + profiles)."""

import numpy as np
import pytest

from repro.datasets import (
    PlantedClusterSpec,
    SyntheticCorpusConfig,
    generate_corpus,
    make_dblp_like,
    make_nyt_like,
    make_pubmed_like,
    profile_summary,
)
from repro.datasets.synthetic import documents_to_collection
from repro.errors import ValidationError
from repro.join import exact_join_size, exact_join_sizes


class TestConfigValidation:
    def test_valid_config_passes(self):
        SyntheticCorpusConfig(num_vectors=10, vocabulary_size=100).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_vectors": 1, "vocabulary_size": 100},
            {"num_vectors": 10, "vocabulary_size": 1},
            {"num_vectors": 10, "vocabulary_size": 100, "zipf_exponent": 0.0},
            {"num_vectors": 10, "vocabulary_size": 100, "mean_length": 0.0},
            {"num_vectors": 10, "vocabulary_size": 100, "min_length": 0},
            {"num_vectors": 10, "vocabulary_size": 100, "weighting": "bm25"},
            {"num_vectors": 10, "vocabulary_size": 100,
             "planted_clusters": (PlantedClusterSpec(1.0, (1, 4), (0.1,)),)},
            {"num_vectors": 10, "vocabulary_size": 100,
             "planted_clusters": (PlantedClusterSpec(0.1, (3, 2), (0.1,)),)},
            {"num_vectors": 10, "vocabulary_size": 100,
             "planted_clusters": (PlantedClusterSpec(0.1, (1, 4), ()),)},
            {"num_vectors": 10, "vocabulary_size": 100,
             "planted_clusters": (PlantedClusterSpec(0.1, (1, 4), (1.0,)),)},
        ],
    )
    def test_invalid_configs_raise(self, kwargs):
        with pytest.raises(ValidationError):
            SyntheticCorpusConfig(**kwargs).validate()

    def test_planted_cluster_fractions_must_leave_base(self):
        config = SyntheticCorpusConfig(
            num_vectors=10,
            vocabulary_size=100,
            planted_clusters=(
                PlantedClusterSpec(0.6, (1, 2), (0.1,)),
                PlantedClusterSpec(0.5, (1, 2), (0.1,)),
            ),
        )
        with pytest.raises(ValidationError):
            config.validate()

    def test_cluster_spec_validation(self):
        with pytest.raises(ValidationError):
            PlantedClusterSpec(0.1, (0, 2), (0.1,)).validate()
        with pytest.raises(ValidationError):
            PlantedClusterSpec(0.1, (1, 2), ()).validate()


class TestGenerateCorpus:
    def test_corpus_size_matches_config(self):
        config = SyntheticCorpusConfig(num_vectors=120, vocabulary_size=400)
        corpus = generate_corpus(config, random_state=0)
        assert corpus.size == 120
        assert corpus.collection.size == 120

    def test_deterministic_given_seed(self):
        config = SyntheticCorpusConfig(num_vectors=50, vocabulary_size=200)
        a = generate_corpus(config, random_state=7)
        b = generate_corpus(config, random_state=7)
        assert a.documents == b.documents

    def test_different_seeds_differ(self):
        config = SyntheticCorpusConfig(num_vectors=50, vocabulary_size=200)
        a = generate_corpus(config, random_state=1)
        b = generate_corpus(config, random_state=2)
        assert a.documents != b.documents

    def test_minimum_length_respected(self):
        config = SyntheticCorpusConfig(
            num_vectors=80, vocabulary_size=300, mean_length=4, min_length=3
        )
        corpus = generate_corpus(config, random_state=3)
        assert min(len(document) for document in corpus.documents) >= 2
        # binary collection length may shrink by deduplication but stays positive
        assert corpus.collection.nnz_per_row.min() >= 1

    def test_token_ids_within_vocabulary(self):
        config = SyntheticCorpusConfig(num_vectors=40, vocabulary_size=64)
        corpus = generate_corpus(config, random_state=5)
        highest = max(max(document) for document in corpus.documents)
        assert highest < 64
        assert corpus.collection.dimension == 64

    def test_planted_duplicates_create_high_similarity_pairs(self):
        config = SyntheticCorpusConfig(
            num_vectors=200,
            vocabulary_size=2000,
            planted_clusters=(PlantedClusterSpec(0.2, (2, 3), (0.0,)),),
        )
        corpus = generate_corpus(config, random_state=1)
        assert exact_join_size(corpus.collection, 0.999) > 0

    def test_no_planting_means_empty_high_tail(self):
        config = SyntheticCorpusConfig(
            num_vectors=150,
            vocabulary_size=3000,
            zipf_exponent=0.8,
            planted_clusters=(PlantedClusterSpec(0.0, (1, 1), (0.0,)),),
        )
        corpus = generate_corpus(config, random_state=2)
        assert exact_join_size(corpus.collection, 0.95) == 0

    def test_weighting_modes(self):
        documents = [[0, 0, 1], [1, 2], [2, 2, 2]]
        binary = documents_to_collection(documents, 3, "binary")
        counts = documents_to_collection(documents, 3, "counts")
        tfidf = documents_to_collection(documents, 3, "tfidf")
        assert set(binary.matrix.data.tolist()) == {1.0}
        assert counts.row_dict(0)[0] == 2.0
        # token 2 appears in 2 of 3 documents -> lower idf than token 0
        assert tfidf.row_dict(0)[0] > tfidf.row_dict(1)[2]

    def test_invalid_weighting(self):
        with pytest.raises(ValidationError):
            documents_to_collection([[0]], 1, "unknown")


class TestProfiles:
    @pytest.mark.parametrize(
        "factory,weighting",
        [(make_dblp_like, "binary"), (make_nyt_like, "tfidf"), (make_pubmed_like, "tfidf")],
    )
    def test_profiles_generate_requested_size(self, factory, weighting):
        corpus = factory(num_vectors=200, random_state=1)
        assert corpus.collection.size == 200
        assert corpus.config.weighting == weighting

    def test_dblp_like_is_binary_and_short(self):
        corpus = make_dblp_like(num_vectors=300, random_state=0)
        assert set(np.unique(corpus.collection.matrix.data)) == {1.0}
        assert 5 < corpus.collection.nnz_per_row.mean() < 25

    def test_nyt_like_has_longer_vectors(self):
        nyt = make_nyt_like(num_vectors=200, random_state=0)
        dblp = make_dblp_like(num_vectors=200, random_state=0)
        assert nyt.collection.nnz_per_row.mean() > dblp.collection.nnz_per_row.mean()

    def test_join_size_is_skewed_in_threshold(self, small_collection):
        sizes = exact_join_sizes(small_collection, [0.1, 0.5, 0.9])
        assert sizes[0] > 5 * sizes[1] > 0
        assert sizes[1] >= sizes[2] > 0

    def test_profile_summary_keys(self, small_corpus):
        summary = profile_summary(small_corpus)
        assert summary["num_vectors"] == small_corpus.collection.size
        assert summary["avg_features"] > 0
        assert summary["total_pairs"] == small_corpus.collection.total_pairs

    def test_overrides_forwarded(self):
        corpus = make_dblp_like(num_vectors=100, random_state=0, mean_length=25.0)
        assert corpus.config.mean_length == 25.0
