"""Monte Carlo machinery: insertion sampler, GSR shuffles, fit summaries."""

import itertools
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from conftest import oracle_descents, oracle_shuffle_weight
from shufflestats import (
    MAX_RIFFLE_ROUNDS,
    CertificationError,
    ExactPmf,
    Permutation,
    SamplerConfig,
    SampleSummary,
    UserInputError,
    c_pmf_C,
    d_pmf_R,
    decision_tree_distribution,
    descent_count,
    exact_statistic_pmf,
    goodness_of_fit,
    gsr_iterate,
    gsr_shuffle,
    insert_symbol,
    insertion_normalization,
    parsimony_pmf,
    per_bin_z,
    riffle_summary,
    sample_C,
    sample_R,
    sample_from_pmf,
    sample_parsimony,
    sample_statistic,
    summarize_values,
)
from shufflestats import measures, sampler

F = Fraction


def _rng(seed=1234):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


class TestConfig:
    def test_valid(self):
        cfg = SamplerConfig(k=4, n=6, count=100, seed=7)
        assert cfg.streams == 8
        assert cfg.count == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(k=0, n=3, count=1, seed=0),
            dict(k=2, n=0, count=1, seed=0),
            dict(k=2, n=3, count=0, seed=0),
            dict(k=2, n=3, count=1, seed=-1),
            dict(k=2, n=3, count=1, seed=2**64),
            dict(k=2, n=3, count=1, seed=0, streams=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(UserInputError):
            SamplerConfig(**kwargs)


class TestDecisionTree:
    @pytest.mark.parametrize("n", range(1, 5))
    @pytest.mark.parametrize("k", range(1, 5))
    def test_expansion_matches_measure(self, k, n):
        tree = decision_tree_distribution(k, n)
        assert sum(tree.values()) == 1
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            want = oracle_shuffle_weight(k, n, oracle_descents(word))
            assert tree.get(p, F(0)) == want

    def test_cap(self):
        with pytest.raises(UserInputError):
            decision_tree_distribution(2, 9)

    def test_normalization_sweep(self):
        assert insertion_normalization(12, 12) > 0
        with pytest.raises(UserInputError):
            insertion_normalization(0, 5)


class TestInsertionCases:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_case_split_controls_descent_change(self, n):
        # inserting the new largest symbol after slot j either preserves
        # d (slot ends a descent or is the last slot) or increments it
        m = n - 1
        for word in itertools.permutations(range(1, m + 1)):
            base = Permutation(word)
            d = oracle_descents(word)
            case1_slots = 0
            for j in range(m + 1):
                grown = insert_symbol(base, j)
                case1 = j == m or (j > 0 and word[j - 1] > word[j])
                if case1:
                    case1_slots += 1
                    assert descent_count(grown) == d
                else:
                    assert descent_count(grown) == d + 1
            assert case1_slots == d + 1


class TestScalarSamplers:
    def test_single_pile_is_identity(self):
        rng = _rng()
        for _ in range(5):
            assert sample_R(1, 6, rng) == Permutation.identity(6)

    def test_single_card(self):
        assert sample_R(3, 1, _rng()) == Permutation((1,))

    def test_samples_are_permutations(self):
        rng = _rng(9)
        for _ in range(50):
            p = sample_R(3, 5, rng)
            assert sorted(p.word) == [1, 2, 3, 4, 5]
            q = sample_C(3, 5, rng)
            assert sorted(q.word) == [1, 2, 3, 4, 5]

    def test_cut_measure_needs_two_cards(self):
        with pytest.raises(UserInputError):
            sample_C(2, 1, _rng())

    def test_identity_frequency_matches_exact_mass(self):
        # P(identity) under R(3, 2) is 2/3
        rng = _rng(42)
        hits = sum(sample_R(3, 2, rng) == Permutation.identity(2) for _ in range(3000))
        assert abs(hits / 3000 - 2 / 3) < 4 * np.sqrt((2 / 3) * (1 / 3) / 3000)


class TestGsr:
    def test_zero_rounds_is_identity(self):
        assert gsr_iterate(7, 0, _rng()) == Permutation.identity(7)

    def test_shuffle_outputs_permutations(self):
        rng = _rng(3)
        p = Permutation.identity(8)
        for _ in range(20):
            p = gsr_shuffle(p, rng)
            assert sorted(p.word) == list(range(1, 9))

    def test_shuffle_is_deck_composed_with_one_riffle(self):
        # same key, same draws: gsr_shuffle(p) reads p through one riffle
        p = Permutation((3, 1, 4, 2, 5, 7, 6))
        for seed in range(6):
            riffle = gsr_iterate(7, 1, _rng(seed))
            want = Permutation(tuple(p(i) for i in riffle.word))
            assert gsr_shuffle(p, _rng(seed)) == want

    def test_one_riffle_matches_permutation_law(self):
        # the inverse of one riffle is R(2, n)-distributed, word by word
        n, reps = 4, 16_000
        words = list(itertools.permutations(range(1, n + 1)))
        index = {w: i for i, w in enumerate(words)}
        law = ExactPmf(
            (i, oracle_shuffle_weight(2, n, oracle_descents(Permutation(w).inverse().word)))
            for i, w in enumerate(words)
        )
        rng = _rng(77)
        values = np.array([index[gsr_iterate(n, 1, rng).word] for _ in range(reps)])
        assert summarize_values(values, law).p_value > 0.001

    def test_many_rounds_allowed_without_exact_reference(self):
        # iterating the physical shuffle never touches 2^rounds, so no cap
        p = gsr_iterate(5, 70, _rng())
        assert sorted(p.word) == [1, 2, 3, 4, 5]

    def test_round_cap_where_exact_pmf_is_needed(self):
        with pytest.raises(UserInputError):
            riffle_summary(4, 63, count=100, seed=0)

    def test_inverse_descents_match_shuffle_law(self):
        # d of the inverse after r GSR rounds follows the 2^r shuffle law
        rng = _rng(2026)
        n, rounds, reps = 5, 2, 4000
        values = np.empty(reps, dtype=np.int64)
        for i in range(reps):
            p = gsr_iterate(n, rounds, rng)
            values[i] = descent_count(p.inverse())
        summary = summarize_values(values, d_pmf_R(4, n))
        assert summary.p_value > 0.001


class TestFitSummaries:
    def test_point_mass_summary(self):
        values = np.zeros(500, dtype=np.int64)
        summary = summarize_values(values, ExactPmf.point_mass(0))
        assert summary.chi_square == 0.0
        assert summary.p_value == 1.0
        assert summary.max_bin_z == 0.0

    def test_null_fit_accepts(self):
        pmf = ExactPmf([(0, F(1, 4)), (1, F(1, 2)), (3, F(1, 4))])
        values = sample_from_pmf(pmf, 100_000, _rng(5))
        summary = summarize_values(values, pmf)
        assert summary.p_value > 0.001
        assert summary.max_bin_z < 4
        assert summary.count == 100_000
        assert summary.empirical_pmf[1] == pytest.approx(0.5, abs=0.01)

    def test_shifted_pmf_is_rejected_with_power(self):
        pmf = ExactPmf([(0, F(1, 4)), (1, F(1, 2)), (3, F(1, 4))])
        shifted = ExactPmf([(0, F(3, 10)), (1, F(9, 20)), (3, F(1, 4))])
        values = sample_from_pmf(pmf, 100_000, _rng(6))
        chi2, p, _ = goodness_of_fit(summarize_values(values, pmf), shifted)
        assert p < 1e-6
        assert chi2 > 100

    def test_stray_value_breaks_certification(self):
        values = np.array([0, 0, 1, 7] + [0] * 96)
        with pytest.raises(CertificationError):
            summarize_values(values, ExactPmf([(0, F(1, 2)), (1, F(1, 2))]))

    def test_foreign_pmf_with_stray_support_degrades_gracefully(self):
        pmf = ExactPmf([(0, F(1, 2)), (1, F(1, 2))])
        values = sample_from_pmf(pmf, 1000, _rng(7))
        summary = summarize_values(values, pmf)
        narrow = ExactPmf.point_mass(0)
        chi2, p, z = goodness_of_fit(summary, narrow)
        assert chi2 == float("inf")
        assert p == 0.0

    def test_undersized_sample_is_rejected(self):
        pmf = ExactPmf([(0, F(1, 2)), (1, F(1, 2))])
        values = sample_from_pmf(pmf, 4, _rng(8))
        with pytest.raises(UserInputError):
            summarize_values(values, pmf)

    def test_p_value_with_two_degrees_of_freedom(self):
        # chi-square with df = 2 has survival function exp(-x/2)
        pmf = ExactPmf([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])
        values = np.repeat([0, 1, 2], [30, 45, 25])
        summary = summarize_values(values, pmf)
        assert summary.chi_square == 1.5
        assert summary.p_value == pytest.approx(math.exp(-0.75), rel=1e-15, abs=0)

    def test_p_value_with_one_degree_of_freedom(self):
        # chi-square with df = 1 has survival function erfc(sqrt(x/2))
        pmf = ExactPmf([(0, F(1, 2)), (1, F(1, 2))])
        values = np.repeat([0, 1], [55, 45])
        summary = summarize_values(values, pmf)
        assert summary.chi_square == 1.0
        assert summary.p_value == pytest.approx(math.erfc(math.sqrt(0.5)), rel=1e-15, abs=0)

    def test_max_bin_z_is_largest_per_bin_z(self):
        pmf = ExactPmf([(0, F(1, 4)), (1, F(1, 2)), (2, F(1, 4))])
        values = np.repeat([0, 1, 2], [30, 45, 25])
        summary = summarize_values(values, pmf)
        z = per_bin_z(summary.histogram, pmf, 100)
        assert summary.max_bin_z == max(abs(v) for v in z.values())

    def test_per_bin_z_covers_support(self):
        pmf = ExactPmf([(0, F(1, 2)), (1, F(1, 2))])
        z = per_bin_z({0: 260, 1: 240}, pmf, 500)
        assert set(z) == {0, 1}
        assert z[0] == pytest.approx(-z[1], abs=1e-12)

    def test_mass_underflowing_float_gives_finite_fit(self):
        # P(d = 199) = 200^-200 is 0.0 as a float
        pmf = d_pmf_R(200, 200)
        assert float(pmf.prob(199)) == 0.0
        summary = summarize_values(sample_from_pmf(pmf, 10**5, _rng(5)), pmf)
        assert math.isfinite(summary.chi_square)
        assert math.isfinite(summary.max_bin_z)
        assert 0.0 < summary.p_value <= 1.0
        # the unobserved bin scores -sqrt(count * p / (1 - p)), about -2.5e-228
        assert summary.histogram[199] == 0
        assert summary.bin_z[199] == pytest.approx(-math.sqrt(1e5) * 200.0**-100, rel=1e-12)
        assert all(math.isfinite(z) for z in summary.bin_z.values())
        chi2, p, max_z = goodness_of_fit(summary, pmf)
        assert (chi2, p, max_z) == (summary.chi_square, summary.p_value, summary.max_bin_z)

    def test_per_bin_z_keeps_float_expression_for_normal_masses(self):
        pmf = ExactPmf([(0, F(1, 3)), (1, F(2, 3))])
        p = float(F(1, 3))
        expected = (40 - 100 * p) / math.sqrt(100 * p * (1.0 - p))
        assert per_bin_z({0: 40, 1: 60}, pmf, 100)[0] == expected

    def test_sample_from_pmf_is_deterministic(self):
        pmf = ExactPmf([(0, F(1, 3)), (2, F(2, 3))])
        a = sample_from_pmf(pmf, 1000, _rng(99))
        b = sample_from_pmf(pmf, 1000, _rng(99))
        assert np.array_equal(a, b)
        assert set(np.unique(a)) <= {0, 2}


class TestStreamedSampling:
    def test_reproducible_across_runs(self):
        cfg = SamplerConfig(k=3, n=5, count=20_000, seed=20260816, streams=8)
        one = sample_statistic("R", "d", cfg)
        two = sample_statistic("R", "d", cfg)
        assert one.histogram == two.histogram
        assert one.chi_square == two.chi_square

    def test_stream_split_preserves_count(self):
        cfg = SamplerConfig(k=2, n=4, count=10_007, seed=3, streams=8)
        summary = sample_statistic("R", "d", cfg)
        assert summary.count == 10_007

    def test_stream_layout_changes_draws(self):
        base = SamplerConfig(k=3, n=5, count=20_000, seed=11, streams=8)
        other = SamplerConfig(k=3, n=5, count=20_000, seed=11, streams=4)
        assert (
            sample_statistic("R", "d", base).histogram
            != sample_statistic("R", "d", other).histogram
        )

    def test_fit_against_exact_law(self):
        cfg = SamplerConfig(k=4, n=6, count=50_000, seed=1, streams=8)
        summary = sample_statistic("R", "d", cfg)
        assert summary.p_value > 0.001
        assert summary.max_bin_z < 4

    def test_cut_statistic_fit(self):
        cfg = SamplerConfig(k=2, n=3, count=30_000, seed=2, streams=8)
        summary = sample_statistic("C", "c", cfg)
        assert summary.p_value > 0.001
        assert set(summary.histogram) <= set(c_pmf_C(2, 3).support)

    def test_cyclic_under_shuffle_measure_rejected(self):
        cfg = SamplerConfig(k=2, n=5, count=100, seed=0)
        with pytest.raises(UserInputError):
            sample_statistic("R", "c", cfg)
        with pytest.raises(UserInputError):
            exact_statistic_pmf("R", 2, 5, "c")

    def test_unknown_codes_rejected(self):
        cfg = SamplerConfig(k=2, n=5, count=100, seed=0)
        with pytest.raises(UserInputError):
            sample_statistic("Q", "d", cfg)
        with pytest.raises(UserInputError):
            sample_statistic("R", "x", cfg)


class TestParsimonyAndRiffle:
    def test_exact_pushforward_agreement(self):
        for r in (0, 1, 2):
            assert exact_statistic_pmf("R", 2**r, 5, "parsimony") == parsimony_pmf(
                5, r, "riffle"
            )
        assert exact_statistic_pmf("C", 4, 5, "parsimony") == parsimony_pmf(
            5, 2, "cut_riffle"
        )

    def test_zero_rounds_collapses(self):
        summary = sample_parsimony(5, 0, "riffle", count=200, seed=1)
        assert summary.histogram == {0: 200}
        assert summary.p_value == 1.0

    def test_small_riffle_distribution(self):
        summary = sample_parsimony(2, 1, "riffle", count=40_000, seed=4)
        assert summary.p_value > 0.001
        assert set(summary.histogram) == {0, 1}

    def test_bad_flavor(self):
        with pytest.raises(UserInputError):
            sample_parsimony(4, 1, "zigzag", count=100, seed=0)

    def test_riffle_summary_matches_shuffle_law(self):
        summary = riffle_summary(6, 2, count=30_000, seed=7)
        assert summary.p_value > 0.001
        assert summary.max_bin_z < 4
        assert summary.count == 30_000

    def test_riffle_summary_zero_rounds(self):
        summary = riffle_summary(4, 0, count=150, seed=2)
        assert summary.histogram == {0: 150}


class TestRoundGuard:
    def test_one_cap_shared_by_every_entry(self):
        assert sampler.MAX_RIFFLE_ROUNDS is measures.MAX_RIFFLE_ROUNDS
        assert MAX_RIFFLE_ROUNDS == 62
        assert measures.riffle_piles(MAX_RIFFLE_ROUNDS) == 2**62
        assert parsimony_pmf(5, MAX_RIFFLE_ROUNDS, "riffle").support[-1] == 3

    @pytest.mark.parametrize("rounds", [-1, MAX_RIFFLE_ROUNDS + 1])
    def test_out_of_range_rounds_rejected(self, rounds):
        with pytest.raises(UserInputError, match="rounds"):
            parsimony_pmf(5, rounds, "riffle")
        with pytest.raises(UserInputError, match="rounds"):
            sample_parsimony(5, rounds, "riffle", count=100, seed=0)
        with pytest.raises(UserInputError, match="rounds"):
            riffle_summary(5, rounds, count=100, seed=0)


class TestThreadCap:
    @pytest.fixture
    def requested(self, monkeypatch):
        seen = []
        real = sampler.ThreadPoolExecutor

        def recording(max_workers=None):
            seen.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(sampler, "ThreadPoolExecutor", recording)
        return seen

    def test_streams_beyond_cpu_count_share_the_workers(self, requested):
        cfg = SamplerConfig(k=3, n=5, count=6400, seed=1, streams=64)
        sample_statistic("R", "d", cfg)
        riffle_summary(5, 2, count=6400, seed=1, streams=64)
        assert len(requested) == 2
        assert max(requested) <= (os.cpu_count() or 1)

    def test_worker_count_changes_no_draw(self, requested, monkeypatch):
        cfg = SamplerConfig(k=3, n=5, count=6400, seed=1, streams=64)
        wide = sample_statistic("R", "d", cfg)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        narrow = sample_statistic("R", "d", cfg)
        assert requested[-1] == 1
        assert narrow.histogram == wide.histogram
        assert narrow.chi_square == wide.chi_square


class TestSummaryType:
    def test_summary_keeps_its_law_and_z_scores(self):
        cfg = SamplerConfig(k=4, n=6, count=5_000, seed=3, streams=2)
        summary = sample_statistic("R", "d", cfg)
        exact = d_pmf_R(4, 6)
        assert summary.exact_pmf == exact
        assert summary.bin_z == per_bin_z(summary.histogram, exact, 5_000)
        assert summary.max_bin_z == max(abs(z) for z in summary.bin_z.values())
        riffled = riffle_summary(6, 2, count=5_000, seed=3, streams=2)
        assert riffled.exact_pmf == exact
        assert riffled.bin_z == per_bin_z(riffled.histogram, exact, 5_000)

    def test_fields_are_plain(self):
        cfg = SamplerConfig(k=2, n=4, count=5_000, seed=9)
        summary = sample_statistic("R", "d", cfg)
        assert isinstance(summary, SampleSummary)
        assert isinstance(summary.histogram, dict)
        assert isinstance(summary.empirical_pmf, dict)
        assert sum(summary.histogram.values()) == 5_000
        assert sum(summary.empirical_pmf.values()) == pytest.approx(1.0, abs=1e-12)
