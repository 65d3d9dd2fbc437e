"""Tests for the empirical stratum probabilities (Tables 1 and 2)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.evaluation import alpha_beta_table, empirical_stratum_probabilities
from repro.evaluation.probabilities import regime_boundaries
from repro.join import exact_join_size
from repro.lsh import LSHTable, SignRandomProjectionFamily
from repro.vectors import VectorCollection


THRESHOLDS = [0.1, 0.3, 0.5, 0.7, 0.9]


class TestEmpiricalStratumProbabilities:
    def test_join_sizes_match_exact_oracle(self, small_table, small_collection, small_histogram):
        rows = empirical_stratum_probabilities(small_table, THRESHOLDS, histogram=small_histogram)
        for row in rows:
            assert row.join_size == exact_join_size(small_collection, row.threshold)

    def test_probability_true_is_join_over_m(self, small_table, small_histogram):
        rows = empirical_stratum_probabilities(small_table, THRESHOLDS, histogram=small_histogram)
        for row in rows:
            assert row.probability_true == pytest.approx(
                row.join_size / small_table.total_pairs
            )

    def test_probabilities_lie_in_unit_interval(self, small_table, small_histogram):
        rows = empirical_stratum_probabilities(small_table, THRESHOLDS, histogram=small_histogram)
        for row in rows:
            for value in (
                row.probability_true,
                row.probability_true_given_h,
                row.probability_h_given_true,
                row.probability_true_given_l,
            ):
                assert 0.0 <= value <= 1.0

    def test_law_of_total_probability(self, small_table, small_histogram):
        """J = J_H + J_L must hold: P(T) M = α N_H + β N_L."""
        rows = empirical_stratum_probabilities(small_table, THRESHOLDS, histogram=small_histogram)
        for row in rows:
            reconstructed = (
                row.probability_true_given_h * small_table.num_collision_pairs
                + row.probability_true_given_l * small_table.num_non_collision_pairs
            )
            assert reconstructed == pytest.approx(row.join_size, rel=1e-9, abs=1e-6)

    def test_alpha_exceeds_beta(self, small_table, small_histogram):
        """The LSH property: co-bucket pairs are likelier to be true pairs."""
        rows = empirical_stratum_probabilities(small_table, THRESHOLDS, histogram=small_histogram)
        for row in rows:
            assert row.probability_true_given_h >= row.probability_true_given_l

    def test_h_given_t_increases_with_threshold(self, small_table, small_histogram):
        """Table 1's trend: at higher thresholds a larger fraction of true
        pairs shares a bucket."""
        rows = empirical_stratum_probabilities(small_table, THRESHOLDS, histogram=small_histogram)
        values = [row.probability_h_given_true for row in rows]
        assert values[-1] > values[0]

    def test_threshold_validation(self, small_table):
        with pytest.raises(ValidationError):
            empirical_stratum_probabilities(small_table, [0.0])

    def test_as_dict_keys(self, small_table, small_histogram):
        row = empirical_stratum_probabilities(small_table, [0.5], histogram=small_histogram)[0]
        assert set(row.as_dict()) == {"tau", "P(T)", "P(T|H)", "P(H|T)", "P(T|L)", "J", "N_H", "J_H"}

    @pytest.mark.parametrize("seed", range(5))
    def test_pairs_exactly_on_the_threshold_count_in_h(self, seed):
        # rows and the same rows scaled: three pairs of cosine 1 (up to
        # round-off), which always share a SimHash bucket
        rows = np.abs(np.random.default_rng(seed).standard_normal((3, 8)))
        collection = VectorCollection.from_dense(np.vstack([rows, 3.7 * rows]))
        table = LSHTable(SignRandomProjectionFamily(8, random_state=seed), collection)
        (row,) = empirical_stratum_probabilities(table, [1.0])
        assert row.join_size == 3
        assert row.true_collision_pairs == 3
        assert row.probability_h_given_true == 1.0
        assert row.probability_true_given_l == 0.0

    def test_builds_histogram_when_not_supplied(self, small_table):
        rows = empirical_stratum_probabilities(small_table, [0.9])
        assert rows[0].join_size >= 0


class TestRegimeBoundaries:
    def test_boundaries(self):
        boundaries = regime_boundaries(1024)
        assert boundaries["alpha_threshold"] == pytest.approx(10 / 1024)
        assert boundaries["beta_high_threshold"] == pytest.approx(1 / 1024)

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            regime_boundaries(1)


class TestAlphaBetaTable:
    def test_table_structure(self, small_table, small_histogram):
        table = alpha_beta_table(small_table, THRESHOLDS, histogram=small_histogram)
        assert len(table["rows"]) == len(THRESHOLDS)
        assert {"tau", "alpha", "beta"} == set(table["rows"][0])
        assert "alpha_threshold" in table["boundaries"]

    def test_alpha_assumption_holds_on_synthetic_dblp(self, small_table, small_histogram):
        """The paper's working assumption α ≥ log n / n should hold for any
        reasonably built LSH table (sanity check mirroring Table 2)."""
        table = alpha_beta_table(small_table, [0.5, 0.7, 0.9], histogram=small_histogram)
        boundary = table["boundaries"]["alpha_threshold"]
        for row in table["rows"]:
            assert row["alpha"] >= boundary
