"""Monte Carlo machinery: insertion sampler, GSR shuffles, fit summaries."""

import concurrent.futures
import itertools
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    fraction_pmf,
    oracle_descents,
    oracle_inverse,
    oracle_shuffle_weight,
    parsimony_law,
)
from shufflestats import measures, sampler
from shufflestats.errors import CertificationError, UserInputError
from shufflestats.measures import (
    MAX_RIFFLE_ROUNDS,
    ExactPmf,
    c_pmf_C,
    d_pmf_R,
    parsimony_distance,
    riffle_piles,
)
from shufflestats.permutations import descent_count, insert_symbol
from shufflestats.sampler import (
    SampleSummary,
    SamplerConfig,
    decision_tree_distribution,
    exact_statistic_pmf,
    per_bin_z,
    riffle_summary,
    sample_statistic,
)

F = Fraction


def _rng(seed=1234):
    return np.random.Generator(np.random.Philox(key=[seed, 0]))


def _insertion_words(k, n, count, rng):
    """Batch of `count` words drawn from the k-shuffle measure on n symbols.

    Step m inserts symbol m+1 into every row. Case 1 inserts after slot m
    or after a descent slot and keeps the descent count; case 2 inserts
    after slot 0 or after an ascent slot and raises it by one. The case
    is drawn first, then a slot uniformly among the d+1 (case 1) or m-d
    (case 2) qualifying slots. This is the reference the walks of
    sampler._insertion_walk must reproduce draw for draw.
    """
    words = np.ones((count, 1), dtype=np.int32)
    rows = np.arange(count)
    for m in range(1, n):
        desc = words[:, :-1] > words[:, 1:]
        case1, t = sampler._insertion_case(k, m, desc.sum(axis=1), rng)
        qualifies = np.empty((count, m + 1), dtype=bool)
        qualifies[:, 0] = ~case1
        qualifies[:, 1:m] = desc == case1[:, None]
        qualifies[:, m] = case1
        j = np.argmax(qualifies.cumsum(axis=1) > t[:, None], axis=1)
        idx = np.arange(m + 1, dtype=np.int64)[None, :]
        src = np.clip(idx - (idx > j[:, None]), 0, m - 1)
        words = np.take_along_axis(words, src, axis=1)
        words[rows, j] = m + 1
    return words


def _summarize(values, exact):
    """Histogram sampled values and fit them against exact, as the samplers do."""
    counts = np.bincount(values, minlength=exact.support[-1] + 1)
    return sampler._summarize(counts, exact, len(values))


def _draw(pmf, count, rng):
    """count values drawn from pmf's float masses."""
    return rng.choice(pmf.support, size=count, p=[float(m) for m in pmf.mass])


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
            want = oracle_shuffle_weight(k, n, oracle_descents(word))
            assert tree.get(word, F(0)) == want

    def test_cap(self):
        with pytest.raises(UserInputError):
            decision_tree_distribution(2, 9)


class TestInsertionCases:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_case_split_controls_descent_change(self, n):
        # inserting the new largest symbol after slot j either preserves
        # d (slot ends a descent or is the last slot) or increments it
        m = n - 1
        for word in itertools.permutations(range(1, m + 1)):
            d = oracle_descents(word)
            case1_slots = 0
            for j in range(m + 1):
                grown = insert_symbol(word, j)
                case1 = j == m or (j > 0 and word[j - 1] > word[j])
                if case1:
                    case1_slots += 1
                    assert descent_count(grown) == d
                else:
                    assert descent_count(grown) == d + 1
            assert case1_slots == d + 1


class TestInsertionWalk:
    # The walk keeps (d, last > first) per row and must read the stream
    # exactly as the word sampler does.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 30, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 50, 10**6, 2**40])
    def test_walk_matches_the_words_from_the_same_stream(self, k, n):
        for seed in (0, 1, 20261018):
            word_rng, walk_rng = _rng(seed), _rng(seed)
            words = _insertion_words(k, n, 300, word_rng)
            d, wrap = sampler._insertion_walk(k, n, 300, walk_rng)
            assert d.tolist() == sampler._descents_per_row(words).tolist()
            assert wrap.tolist() == (words[:, -1] > words[:, 0]).tolist()
            np.testing.assert_equal(word_rng.bit_generator.state, walk_rng.bit_generator.state)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 52, 200])
    @pytest.mark.parametrize("k", [1, 2, 10, "n", 2**40])
    def test_cut_descents_match_the_rotated_words(self, k, n):
        k = n if k == "n" else k
        for seed in (0, 1, 20261018):
            word_rng, walk_rng, desc_rng = _rng(seed), _rng(seed), _rng(seed)
            words = _insertion_words(k, n, 300, word_rng)
            shift = word_rng.integers(0, n, size=300)
            cut = np.array([np.roll(w, -s) for w, s in zip(words, shift)])
            d = sampler._cut_descents(k, n, 300, walk_rng)
            assert d.tolist() == sampler._descents_per_row(cut).tolist()
            np.testing.assert_equal(word_rng.bit_generator.state, walk_rng.bit_generator.state)
            # The bitmap itself: slot 0 ascends, slot n descends.
            desc = np.zeros((n + 1, 300), dtype=bool)
            sampler._insertion_walk(k, n, 300, desc_rng, desc)
            assert (desc[1:n].T == (words[:, :-1] > words[:, 1:])).all()
            assert not desc[0].any() and desc[n].all()

    def test_cut_descents_past_a_byte_of_slot_counts(self):
        # n = 300 takes the running slot counts past uint8.
        word_rng, walk_rng = _rng(5), _rng(5)
        words = _insertion_words(2**40, 300, 40, word_rng)
        shift = word_rng.integers(0, 300, size=40)
        cut = np.array([np.roll(w, -s) for w, s in zip(words, shift)])
        assert sampler._cut_descents(2**40, 300, 40, walk_rng).tolist() == (
            sampler._descents_per_row(cut).tolist()
        )

    @pytest.mark.parametrize("n", [1, 2, 254, 255, 256, 32_767, 32_768, 65_535, 10**6])
    def test_slot_count_dtype_holds_n_plus_one(self, n):
        # A fixed int16 would overflow from n = 32,767 on.
        assert np.iinfo(sampler._slot_count_dtype(n)).max >= n + 1

    @pytest.mark.parametrize("m", [1, 2, 5, 60, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 50, 1000, 2**40])
    def test_thresholds_match_the_fraction_formula(self, k, m):
        want = []
        for d in range(m):
            if d >= k:
                want.append(sampler._SCALE)
                continue
            p1 = F((d + 1) * (m + k - d), k * (m + 1))
            want.append(min((p1.numerator * sampler._SCALE) // p1.denominator, sampler._SCALE))
        assert sampler._case_thresholds(k, m).tolist() == want


class TestSeeds:
    def test_seeds_at_and_above_2_63_get_their_own_streams(self):
        # numpy reads a plain list key [seed, id] with seed >= 2**63 as
        # float64: 2**64 - 1 and 2**64 - 2 then collide with seed 0.
        histograms = set()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in (0, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1):
                config = SamplerConfig(k=4, n=6, count=2000, seed=seed, streams=2)
                summary = sample_statistic("R", "d", config)
                histograms.add(tuple(summary.histogram.items()))
        assert len(histograms) == 5


class TestScalarSamplers:
    # One draw is row 0 of a one-row batch; a C draw rotates that row
    # left by rng.integers(0, n).
    def test_single_pile_is_identity(self):
        rng = _rng()
        for _ in range(5):
            assert _insertion_words(1, 6, 1, rng)[0].tolist() == [1, 2, 3, 4, 5, 6]

    def test_single_card(self):
        assert _insertion_words(3, 1, 1, _rng())[0].tolist() == [1]

    def test_samples_are_permutations(self):
        rng = _rng(9)
        for _ in range(50):
            p = _insertion_words(3, 5, 1, rng)[0]
            assert sorted(p.tolist()) == [1, 2, 3, 4, 5]
            q = np.roll(_insertion_words(3, 5, 1, rng)[0], -int(rng.integers(0, 5)))
            assert sorted(q.tolist()) == [1, 2, 3, 4, 5]

    def test_cut_measure_needs_two_cards(self):
        config = SamplerConfig(k=2, n=1, count=10, seed=0)
        with pytest.raises(UserInputError):
            sample_statistic("C", "c", config)

    def test_identity_frequency_matches_exact_mass(self):
        # P(identity) under R(3, 2) is 2/3
        rng = _rng(42)
        hits = sum(
            _insertion_words(3, 2, 1, rng)[0].tolist() == [1, 2] for _ in range(3000)
        )
        assert abs(hits / 3000 - 2 / 3) < 4 * np.sqrt((2 / 3) * (1 / 3) / 3000)


class TestGsr:
    # One riffle run is row 0 of a one-row _gsr_words batch; riffling a
    # deck p reads p through one round of a sorted deck.
    def test_zero_rounds_is_identity(self):
        assert sampler._gsr_words(7, 0, 1, _rng())[0].tolist() == list(range(1, 8))

    @staticmethod
    def _double_argsort_words(n, rounds, count, rng):
        # The round as first written: ranks by a second argsort, then
        # each packet's cards placed through two cumsums.
        words = np.tile(np.arange(1, n + 1, dtype=np.int32), (count, 1))
        for _ in range(rounds):
            cut = rng.binomial(n, 0.5, size=count)
            ranks = np.argsort(np.argsort(rng.random((count, n)), axis=1), axis=1)
            in_top = ranks < cut[:, None]
            src = np.where(
                in_top,
                in_top.cumsum(axis=1) - 1,
                cut[:, None] + (~in_top).cumsum(axis=1) - 1,
            )
            words = np.take_along_axis(words, src, axis=1)
        return words

    @pytest.mark.parametrize("rounds", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 13, 52])
    def test_rounds_match_the_double_argsort_round(self, n, rounds):
        for seed in (0, 1, 20261018):
            ref_rng, rng = _rng(seed), _rng(seed)
            want = self._double_argsort_words(n, rounds, 500, ref_rng)
            assert sampler._gsr_words(n, rounds, 500, rng).tolist() == want.tolist()
            np.testing.assert_equal(ref_rng.bit_generator.state, rng.bit_generator.state)

    class _CoarseUniforms:
        """A real generator whose uniforms are rounded down to multiples of 1/16, so rows tie."""

        def __init__(self, seed):
            self.real = _rng(seed)
            self.cuts, self.uniforms = [], []

        def binomial(self, n, p, size):
            self.cuts.append(self.real.binomial(n, p, size=size))
            return self.cuts[-1]

        def random(self, size):
            self.uniforms.append(np.floor(self.real.random(size) * 16) / 16)
            return self.uniforms[-1]

    def test_rows_tied_at_the_cut_match_the_double_argsort_round(self):
        n, rounds = 13, 3
        ref, stub = self._CoarseUniforms(11), self._CoarseUniforms(11)
        want = self._double_argsort_words(n, rounds, 400, ref)
        assert sampler._gsr_words(n, rounds, 400, stub).tolist() == want.tolist()
        np.testing.assert_equal(ref.real.bit_generator.state, stub.real.bit_generator.state)
        # Rows whose cut-th and next-lowest uniforms tie take the argsort fallback.
        tied = 0
        for cut, u in zip(stub.cuts, stub.uniforms):
            s = np.sort(u, axis=1)
            inner = np.flatnonzero((cut > 0) & (cut < n))
            tied += np.count_nonzero(s[inner, cut[inner] - 1] == s[inner, cut[inner]])
        assert tied > 0

    def test_shuffle_outputs_permutations(self):
        rng = _rng(3)
        p = tuple(range(1, 9))
        for _ in range(20):
            p = tuple(p[w - 1] for w in sampler._gsr_words(len(p), 1, 1, rng)[0])
            assert sorted(p) == list(range(1, 9))

    def test_one_riffle_matches_permutation_law(self):
        # the inverse of one riffle is R(2, n)-distributed, word by word
        n, reps = 4, 16_000
        words = list(itertools.permutations(range(1, n + 1)))
        index = {w: i for i, w in enumerate(words)}
        law = fraction_pmf(
            (i, oracle_shuffle_weight(2, n, oracle_descents(oracle_inverse(w))))
            for i, w in enumerate(words)
        )
        rng = _rng(77)
        values = np.array(
            [index[tuple(sampler._gsr_words(n, 1, 1, rng)[0].tolist())] for _ in range(reps)]
        )
        assert _summarize(values, law).p_value > 0.001

    def test_many_rounds_allowed_without_exact_reference(self):
        # iterating the physical shuffle never touches 2^rounds, so no cap
        row = sampler._gsr_words(5, 70, 1, _rng())[0]
        assert sorted(row.tolist()) == [1, 2, 3, 4, 5]

    def test_round_cap_where_exact_pmf_is_needed(self):
        with pytest.raises(UserInputError):
            riffle_summary(4, 63, count=100, seed=0)

    def test_inverse_descents_match_shuffle_law(self):
        # d of the inverse after r GSR rounds follows the 2^r shuffle law
        rng = _rng(2026)
        n, rounds, reps = 5, 2, 4000
        values = np.empty(reps, dtype=np.int64)
        for i in range(reps):
            word = sampler._gsr_words(n, rounds, 1, rng)[0].tolist()
            values[i] = oracle_descents(oracle_inverse(word))
        summary = _summarize(values, d_pmf_R(4, n))
        assert summary.p_value > 0.001


class TestFitSummaries:
    def test_point_mass_summary(self):
        values = np.zeros(500, dtype=np.int64)
        summary = _summarize(values, ExactPmf(1, [(0, 1)]))
        assert summary.chi_square == 0.0
        assert summary.p_value == 1.0
        assert summary.max_bin_z == 0.0

    def test_null_fit_accepts(self):
        pmf = ExactPmf(4, [(0, 1), (1, 2), (3, 1)])
        values = _draw(pmf, 100_000, _rng(5))
        summary = _summarize(values, pmf)
        assert summary.p_value > 0.001
        assert summary.max_bin_z < 4
        assert sum(summary.histogram.values()) == 100_000
        assert summary.histogram[1] / 100_000 == pytest.approx(0.5, abs=0.01)

    def test_shifted_pmf_is_rejected_with_power(self):
        pmf = ExactPmf(4, [(0, 1), (1, 2), (3, 1)])
        shifted = ExactPmf(20, [(0, 6), (1, 9), (3, 5)])
        summary = _summarize(_draw(pmf, 100_000, _rng(6)), shifted)
        assert summary.p_value < 1e-6
        assert summary.chi_square > 100

    def test_stray_value_breaks_certification(self):
        values = np.array([0, 0, 1, 7] + [0] * 96)
        with pytest.raises(CertificationError):
            _summarize(values, ExactPmf(2, [(0, 1), (1, 1)]))

    def test_undersized_sample_is_rejected(self):
        pmf = ExactPmf(2, [(0, 1), (1, 1)])
        values = np.array([0, 1, 1, 0])
        with pytest.raises(UserInputError):
            _summarize(values, pmf)

    def test_p_value_with_two_degrees_of_freedom(self):
        # chi-square with df = 2 has survival function exp(-x/2)
        pmf = ExactPmf(4, [(0, 1), (1, 2), (2, 1)])
        values = np.repeat([0, 1, 2], [30, 45, 25])
        summary = _summarize(values, pmf)
        assert summary.chi_square == 1.5
        assert summary.p_value == pytest.approx(math.exp(-0.75), rel=1e-15, abs=0)

    def test_p_value_with_one_degree_of_freedom(self):
        # chi-square with df = 1 has survival function erfc(sqrt(x/2))
        pmf = ExactPmf(2, [(0, 1), (1, 1)])
        values = np.repeat([0, 1], [55, 45])
        summary = _summarize(values, pmf)
        assert summary.chi_square == 1.0
        assert summary.p_value == pytest.approx(math.erfc(math.sqrt(0.5)), rel=1e-15, abs=0)

    def test_max_bin_z_is_largest_per_bin_z(self):
        pmf = ExactPmf(4, [(0, 1), (1, 2), (2, 1)])
        values = np.repeat([0, 1, 2], [30, 45, 25])
        summary = _summarize(values, pmf)
        z = per_bin_z(summary.histogram, pmf, 100)
        assert summary.max_bin_z == max(abs(v) for v in z.values())

    def test_per_bin_z_covers_support(self):
        pmf = ExactPmf(2, [(0, 1), (1, 1)])
        z = per_bin_z({0: 260, 1: 240}, pmf, 500)
        assert set(z) == {0, 1}
        assert z[0] == pytest.approx(-z[1], abs=1e-12)

    def test_mass_underflowing_float_gives_finite_fit(self):
        # P(d = 199) = 200^-200 is 0.0 as a float
        pmf = d_pmf_R(200, 200)
        assert float(pmf.prob(199)) == 0.0
        summary = _summarize(_draw(pmf, 10**5, _rng(5)), pmf)
        assert math.isfinite(summary.chi_square)
        assert math.isfinite(summary.max_bin_z)
        assert 0.0 < summary.p_value <= 1.0
        # the unobserved bin scores -sqrt(count * p / (1 - p)), about -2.5e-228
        assert summary.histogram[199] == 0
        assert summary.bin_z[199] == pytest.approx(-math.sqrt(1e5) * 200.0**-100, rel=1e-12)
        assert all(math.isfinite(z) for z in summary.bin_z.values())

    def test_per_bin_z_keeps_float_expression_for_normal_masses(self):
        pmf = ExactPmf(3, [(0, 1), (1, 2)])
        p = float(F(1, 3))
        expected = (40 - 100 * p) / math.sqrt(100 * p * (1.0 - p))
        assert per_bin_z({0: 40, 1: 60}, pmf, 100)[0] == expected


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
        assert sum(summary.histogram.values()) == 10_007

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
            assert exact_statistic_pmf("R", 2**r, 5, "parsimony") == parsimony_law("R", r, 5)
        assert exact_statistic_pmf("C", 4, 5, "parsimony") == parsimony_law("C", 2, 5)

    # r rounds give k = 2^r piles.
    def test_zero_rounds_collapses(self):
        config = SamplerConfig(k=riffle_piles(0), n=5, count=200, seed=1)
        summary = sample_statistic("R", "parsimony", config)
        assert summary.histogram == {0: 200}
        assert summary.p_value == 1.0

    def test_small_riffle_distribution(self):
        config = SamplerConfig(k=riffle_piles(1), n=2, count=40_000, seed=4)
        summary = sample_statistic("R", "parsimony", config)
        assert summary.p_value > 0.001
        assert set(summary.histogram) == {0, 1}

    def test_bad_flavor(self):
        with pytest.raises(UserInputError, match="flavor"):
            parsimony_distance(3, "zigzag")

    def test_riffle_summary_matches_shuffle_law(self):
        summary = riffle_summary(6, 2, count=30_000, seed=7)
        assert summary.p_value > 0.001
        assert summary.max_bin_z < 4
        assert sum(summary.histogram.values()) == 30_000

    def test_riffle_summary_zero_rounds(self):
        summary = riffle_summary(4, 0, count=150, seed=2)
        assert summary.histogram == {0: 150}


class TestRoundGuard:
    def test_one_cap_shared_by_every_entry(self):
        assert MAX_RIFFLE_ROUNDS == 62
        assert measures.riffle_piles(MAX_RIFFLE_ROUNDS) == 2**62
        assert parsimony_law("R", MAX_RIFFLE_ROUNDS, 5).support[-1] == 3

    @pytest.mark.parametrize("rounds", [-1, MAX_RIFFLE_ROUNDS + 1])
    def test_out_of_range_rounds_rejected(self, rounds):
        with pytest.raises(UserInputError, match="rounds"):
            parsimony_law("R", rounds, 5)
        with pytest.raises(UserInputError, match="rounds"):
            config = SamplerConfig(k=riffle_piles(rounds), n=5, count=100, seed=0)
            sample_statistic("R", "parsimony", config)
        with pytest.raises(UserInputError, match="rounds"):
            riffle_summary(5, rounds, count=100, seed=0)


class TestThreadCap:
    @pytest.fixture
    def requested(self, monkeypatch):
        seen = []
        real = concurrent.futures.ThreadPoolExecutor

        def recording(max_workers=None):
            seen.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        return seen

    def test_streams_beyond_cpu_count_share_the_workers(self, requested):
        cfg = SamplerConfig(k=3, n=5, count=6400, seed=1, streams=64)
        sample_statistic("R", "d", cfg)
        riffle_summary(5, 2, count=6400, seed=1)
        assert len(requested) == 2
        assert max(requested) <= (os.cpu_count() or 1)

    def test_worker_count_changes_no_draw(self, requested, monkeypatch):
        # Without an affinity set the cap falls back to the CPU count.
        cfg = SamplerConfig(k=3, n=5, count=6400, seed=1, streams=64)
        wide = sample_statistic("R", "d", cfg)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        narrow = sample_statistic("R", "d", cfg)
        assert requested[-1] == 1
        assert narrow.histogram == wide.histogram
        assert narrow.chi_square == wide.chi_square

    def test_cap_counts_the_cpus_the_process_may_use(self, requested, monkeypatch):
        cfg = SamplerConfig(k=3, n=5, count=6400, seed=1, streams=64)
        wide = sample_statistic("R", "d", cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        pinned = sample_statistic("R", "d", cfg)
        assert requested[-1] == 1
        assert pinned.histogram == wide.histogram


class TestSummaryType:
    def test_summary_keeps_its_law_and_z_scores(self):
        cfg = SamplerConfig(k=4, n=6, count=5_000, seed=3, streams=2)
        summary = sample_statistic("R", "d", cfg)
        exact = d_pmf_R(4, 6)
        assert summary.exact_pmf == exact
        assert summary.bin_z == per_bin_z(summary.histogram, exact, 5_000)
        assert summary.max_bin_z == max(abs(z) for z in summary.bin_z.values())
        riffled = riffle_summary(6, 2, count=5_000, seed=3)
        assert riffled.exact_pmf == exact
        assert riffled.bin_z == per_bin_z(riffled.histogram, exact, 5_000)

    def test_fields_are_plain(self):
        cfg = SamplerConfig(k=2, n=4, count=5_000, seed=9)
        summary = sample_statistic("R", "d", cfg)
        assert isinstance(summary, SampleSummary)
        assert isinstance(summary.histogram, dict)
        assert isinstance(summary.bin_z, dict)
        assert sum(summary.histogram.values()) == 5_000
        assert list(summary.histogram) == list(summary.bin_z) == list(summary.exact_pmf.support)
