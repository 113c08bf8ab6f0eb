"""Monte Carlo machinery: insertion sampler, GSR shuffles, fit summaries."""

import concurrent.futures
import functools
import itertools
import math
import os
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    fraction_pmf,
    oracle_cyclic_descents,
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


@functools.lru_cache(maxsize=None)
def _regions(k, m, d):
    """(a, w) at deck size m with d descents, from Fractions: the 53-bit widths of a
    case-2 (ascent) slot and of a case-1 (descent) slot."""
    K = k * (m + 1)
    return math.floor(F(k - d - 1, K) * 2**53), math.floor(F(m + k - d, K) * 2**53)


def _bounds(k, m, d):
    """[a, (m-d)a, (m-d)a + dw, w]: the case-2 width, where case 1 and slot m start, the
    case-1 width."""
    a, w = _regions(k, m, d)
    return [a, (m - d) * a, (m - d) * a + d * w, w]


def _insertion_words(k, n, count, rng):
    """Batch of `count` words drawn from the k-shuffle measure on n symbols.

    Step m inserts symbol m+1 into every row. Case 1 inserts after slot m
    or after a descent slot and keeps the descent count; case 2 inserts
    after slot 0 or after an ascent slot and raises it by one. Each row
    reads one raw word a step, all rows in one call, and its top 53 bits u
    pick the slot: the m-d case-2 slots of width a come first, then the
    d+1 case-1 slots of width w, the last of them taking everything up to
    2^53. This is the reference the walks of sampler._insertion_walk must
    reproduce draw for draw.
    """
    words = np.ones((count, 1), dtype=np.int32)
    rows = np.arange(count)
    for m in range(1, n):
        desc = words[:, :-1] > words[:, 1:]
        d = desc.sum(axis=1).astype(np.uint64)
        widths = np.array([_regions(k, m, e) for e in range(min(m, k))], dtype=np.uint64)
        a, w = widths[d].T
        u = rng.bit_generator.random_raw(count) >> np.uint64(11)
        start = (np.uint64(m) - d) * a  # where case 1 starts
        case1 = u >= start
        t = np.where(case1, np.minimum((u - start) // w, d), u // np.maximum(a, 1))
        qualifies = np.empty((count, m + 1), dtype=bool)
        qualifies[:, 0] = ~case1
        qualifies[:, 1:m] = desc == case1[:, None]
        qualifies[:, m] = case1
        j = np.argmax(qualifies.cumsum(axis=1) > t.astype(np.int64)[:, None], axis=1)
        idx = np.arange(m + 1, dtype=np.int64)[None, :]
        src = np.clip(idx - (idx > j[:, None]), 0, m - 1)
        words = np.take_along_axis(words, src, axis=1)
        words[rows, j] = m + 1
    return words


def _cut_positions(n, count, rng):
    """Uniform cut positions in [0, n), one raw word a row: each s < n-1 covers
    floor(2^53 / n) values of the top 53 bits and s = n-1 the rest."""
    raw = rng.bit_generator.random_raw(count).tolist()
    return np.array([min((u >> 11) // (2**53 // n), n - 1) for u in raw], dtype=np.int64)


def _summarize(values, exact):
    """Histogram sampled values and fit them against exact, as the samplers do."""
    counts = np.bincount(values, minlength=exact.support[-1] + 1)
    return sampler._summarize(counts, exact, len(values))


def _draw(pmf, count, rng):
    """count values drawn from pmf's float masses."""
    return rng.choice(pmf.support, size=count, p=[float(m) for _, m in pmf.items()])


def _double_argsort_words(n, rounds, count, rng):
    """The riffle round written deck by deck in plain Python.

    Each round reads ceil(n/64) raw words a deck in one call; position i
    takes bit i % 64 of the deck's word i // 64. A stable argsort of the
    bits lists the top packet's positions, then the bottom's; its own
    argsort ranks each position, and position i takes the card of that
    rank. This is the reference sampler._gsr_words must reproduce draw
    for draw.
    """
    per_row = -(-n // 64)
    decks = [list(range(1, n + 1)) for _ in range(count)]
    for _ in range(rounds):
        raw = rng.bit_generator.random_raw(count * per_row).tolist()
        for row, deck in enumerate(decks):
            bits = [raw[row * per_row + i // 64] >> (i % 64) & 1 for i in range(n)]
            order = sorted(range(n), key=bits.__getitem__)
            deck[:] = [deck[rank] for rank in sorted(range(n), key=order.__getitem__)]
    return np.array(decks, dtype=np.int64).reshape(count, n)


def _descent_lists(k, n, rows, rng):
    """Each row's Q from sampler._insertion_walk, in lists sized as sampler._cut_descents
    sizes them: min(n-1, k-1) entries of n+1, in the smallest dtype that holds 2n."""
    lists = np.full((min(n - 1, k - 1), rows), n + 1, dtype=np.min_scalar_type(2 * n))
    sampler._insertion_walk(sampler._threshold_tables(k, n), n, rows, rng, lists)
    return lists


def _assert_descent_lists(lists, words):
    """Q[i] + i runs through each word's inner descent slots s, word[s-1] > word[s], in
    order; the entries past them read n+1."""
    n = words.shape[1]
    for q, word in zip(lists.T.tolist(), words.tolist()):
        slots = [s for s in range(1, n) if word[s - 1] > word[s]]
        assert [v + i for i, v in enumerate(q[: len(slots)])] == slots
        assert q[len(slots) :] == [n + 1] * (len(q) - len(slots))


class _PresetWords:
    """Stands in for a generator whose bit generator hands out the given raw words in order."""

    def __init__(self, words):
        self.bit_generator, self.words = self, np.asarray(words, dtype=np.uint64)

    def random_raw(self, size):
        out, self.words = self.words[:size], self.words[size:]
        return out


def _riffle_counts(n, rounds):
    """How many of the 2^(n rounds) bit words riffle a sorted deck into each word of S_n."""
    words = np.arange(2 ** (n * rounds), dtype=np.uint64)
    # Row r reads its round-j bits from the j-th block of n bits of r, lowest first.
    per_round = [(words >> np.uint64(n * j)) & np.uint64(2**n - 1) for j in range(rounds)]
    decks = sampler._gsr_words(n, rounds, words.size, _PresetWords(np.concatenate(per_round)))
    return Counter(map(tuple, decks.tolist()))


def _bin_counts(values):
    """The np.bincount of a multiset of values, as a list."""
    counts = Counter(values)
    return [counts[v] for v in range(max(counts) + 1)]


def _run_bin_counts(monkeypatch, run):
    """The bin counts that run() hands to the fit, as a list."""
    monkeypatch.setattr(sampler, "_summarize", lambda counts, exact, count: counts)
    return run().tolist()


def _blocks_of(rows):
    """A sampler._blocks that cuts every run into blocks of `rows` rows, the last one shorter."""

    def blocks(count, row_bytes):
        return [slice(a, min(a + rows, count)) for a in range(0, count, rows)]

    return blocks


@pytest.fixture(params=[1, 7, 64])
def block_rows(request, monkeypatch):
    """Cut every sampling run into blocks of this many rows."""
    monkeypatch.setattr(sampler, "_blocks", _blocks_of(request.param))


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
            dict(k=2, n=3, count=2**63, seed=0),
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
            d, wrap = sampler._insertion_walk(sampler._threshold_tables(k, n), n, 300, walk_rng)
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
            shift = _cut_positions(n, 300, word_rng)
            cut = np.array([np.roll(w, -s) for w, s in zip(words, shift)])
            tables = sampler._threshold_tables(k, n)
            d = sampler._cut_descents(tables, n, 300, walk_rng)
            assert d.tolist() == sampler._descents_per_row(cut).tolist()
            np.testing.assert_equal(word_rng.bit_generator.state, walk_rng.bit_generator.state)
            # The lists themselves: each row's inner descent slots, then n+1.
            _assert_descent_lists(_descent_lists(k, n, 300, desc_rng), words)

    def test_cut_descents_past_a_byte_of_slot_counts(self):
        # n = 300 takes the descent lists past uint8.
        word_rng, walk_rng = _rng(5), _rng(5)
        words = _insertion_words(2**40, 300, 40, word_rng)
        shift = _cut_positions(300, 40, word_rng)
        cut = np.array([np.roll(w, -s) for w, s in zip(words, shift)])
        tables = sampler._threshold_tables(2**40, 300)
        assert sampler._cut_descents(tables, 300, 40, walk_rng).tolist() == (
            sampler._descents_per_row(cut).tolist()
        )

    @pytest.mark.parametrize(
        "k, n", [*((2**40, n) for n in (126, 127, 128, 254, 255, 256)), (200, 250), (10, 1000)]
    )
    def test_cut_descents_where_the_list_dtype_widens(self, k, n):
        # The lists' entries reach 2n, uint8 up to n = 127. A dtype sized by n+1 alone
        # gave a wrong d at (200, 250), where Q + i wraps on the unused entries.
        word_rng, walk_rng = _rng(n), _rng(n)
        words = _insertion_words(k, n, 40, word_rng)
        shift = _cut_positions(n, 40, word_rng)
        cut = np.array([np.roll(w, -s) for w, s in zip(words, shift)])
        tables = sampler._threshold_tables(k, n)
        assert sampler._cut_descents(tables, n, 40, walk_rng).tolist() == (
            sampler._descents_per_row(cut).tolist()
        )

    @pytest.mark.parametrize("m", [1, 2, 5, 60, 200])
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 50, 1000, 2**40])
    def test_thresholds_match_the_fraction_formula(self, k, m):
        # Rows a, where case 1 starts, where slot m starts, w; a column per reachable d.
        want = [_bounds(k, m, d) for d in range(min(m, k))]
        assert sampler._threshold_tables(k, m + 1)[m - 1].T.tolist() == want

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 50, 2**40, 2**80])
    def test_widths_tile_the_53_bit_range_within_the_bias_bound(self, k):
        # Every slot but slot m is within 2^-53 of its exact mass, slot m within m 2^-53.
        for m, (a, start, last, w) in enumerate(sampler._threshold_tables(k, 61), start=1):
            for d in range(min(m, k)):
                ascent, descent = F(k - d - 1, k * (m + 1)), F(m + k - d, k * (m + 1))
                assert (m - d) * ascent + (d + 1) * descent == 1
                assert start[d] == (m - d) * a[d] and last[d] == start[d] + d * w[d]
                assert last[d] <= 2**53  # m-d widths a, d widths w, then slot m up to 2^53
                assert 0 <= ascent * 2**53 - int(a[d]) < 1
                assert 0 <= descent * 2**53 - int(w[d]) < 1
                assert 0 <= (2**53 - int(last[d])) - descent * 2**53 < m

    @pytest.mark.parametrize("k", [1, 2, 5, 29, 30, 2**40])
    def test_clipped_tables_read_as_the_full_thresholds(self, k):
        # A table keeps the columns d < min(m, k) that a walk reaches: case 2 has no width
        # at d = k-1, so d never reaches k. Read at those d it gives the Fraction bounds.
        for m, table in enumerate(sampler._threshold_tables(k, 30), start=1):
            d = np.arange(min(m, k), dtype=np.uint8)
            assert table.shape == (4, d.size)
            want = [_bounds(k, m, e) for e in d.tolist()]
            assert table.take(d, axis=1, mode="clip").T.tolist() == want
            if k <= m:
                assert table[0, k - 1] == 0

    def test_thresholds_are_built_once_per_run(self, monkeypatch):
        built, real = [], sampler._threshold_tables
        monkeypatch.setattr(sampler, "_threshold_tables", lambda *kn: built.append(kn) or real(*kn))
        sample_statistic("C", "c", SamplerConfig(k=50, n=30, count=4000, seed=1, streams=4))
        sample_statistic("C", "d", SamplerConfig(k=50, n=30, count=4000, seed=1, streams=4))
        assert built == [(50, 30), (50, 30)]

    @pytest.mark.parametrize(
        "prefix, word",
        [((0, 0, 2**64 - 1), [3, 2, 1, 4]), ((0, 2**64 - 1, 0), [4, 2, 1, 3])],
    )
    def test_words_on_region_boundaries_take_their_slots(self, prefix, word):
        # k = 5: slots 0 and m (a word of 0 and of 2^64 - 1) build a word of m = 4 and d = 2,
        # whose ascent slots are 0 and 3 and whose descent slots 1, 2 and 4, with the wrap
        # ascending or descending. Then each row reads one word on a region boundary.
        a, start, last, _ = _bounds(5, 4, 2)
        u = [a - 1, a, start - 1, start, last - 1, last]
        want = [word[:j] + [5] + word[j:] for j in (0, 3, 3, 1, 2, 4)]
        raw = [w for w in prefix for _ in u] + [x << 11 for x in u]
        words = _insertion_words(5, 5, 6, _PresetWords(raw))
        assert words.tolist() == want
        tables = sampler._threshold_tables(5, 5)
        d, wrap = sampler._insertion_walk(tables, 5, 6, _PresetWords(raw))
        assert d.tolist() == [oracle_descents(w) for w in want]
        assert wrap.tolist() == [w[-1] > w[0] for w in want]
        _assert_descent_lists(_descent_lists(5, 5, 6, _PresetWords(raw)), words)

    def test_cut_words_on_region_boundaries_take_their_positions(self):
        # k = 10: slot m twice, then case-2 ranks 2, 1 and 0 build 6 1 5 2 4 3, whose wrap
        # ascends and whose slots 1 to 5 alternate descent and ascent. So a cut before s
        # leaves 3 descents at even s and 2 at odd s, and an off-by-one shows.
        (a3, _), (a4, _) = _regions(10, 3, 0), _regions(10, 4, 1)
        walk = [2**64 - 1] * 10 + [2 * a3 << 11] * 5 + [a4 << 11] * 5 + [0] * 5
        assert _insertion_words(10, 6, 5, _PresetWords(walk)).tolist() == [[6, 1, 5, 2, 4, 3]] * 5
        width = 2**53 // 6
        cuts = [(width - 1) << 11, width << 11, (5 * width - 1) << 11, 5 * width << 11, 2**64 - 1]
        assert _cut_positions(6, 5, _PresetWords(cuts)).tolist() == [0, 1, 4, 5, 5]
        tables = sampler._threshold_tables(10, 6)
        d = sampler._cut_descents(tables, 6, 5, _PresetWords(walk + cuts))
        assert d.tolist() == [3, 2, 3, 2, 2]


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
    # left by _cut_positions(n, 1, rng)[0].
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
            q = np.roll(_insertion_words(3, 5, 1, rng)[0], -_cut_positions(5, 1, rng)[0])
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

    # n = 65 and 130 take two and three raw words a deck and round.
    @pytest.mark.parametrize("rounds", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 13, 52, 65, 130])
    def test_rounds_match_the_double_argsort_round(self, n, rounds):
        for seed in (0, 1, 20261018):
            ref_rng, rng = _rng(seed), _rng(seed)
            want = _double_argsort_words(n, rounds, 500, ref_rng)
            assert sampler._gsr_words(n, rounds, 500, rng).tolist() == want.tolist()
            np.testing.assert_equal(ref_rng.bit_generator.state, rng.bit_generator.state)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_bit_word_gives_the_shuffle_law_exactly(self, n):
        # Each of the 2^n bit words is one (cut, interleaving) pair of the
        # GSR riffle, so each word of S_n comes up 2^n P_R(2, n) times.
        counts = _riffle_counts(n, 1)
        for word in itertools.permutations(range(1, n + 1)):
            weight = oracle_shuffle_weight(2, n, oracle_descents(oracle_inverse(word)))
            assert counts[word] == weight * 2**n

    @pytest.mark.parametrize("n", range(1, 6))
    def test_two_rounds_of_bit_words_give_the_four_pile_law_exactly(self, n):
        counts = _riffle_counts(n, 2)
        for word in itertools.permutations(range(1, n + 1)):
            weight = oracle_shuffle_weight(4, n, oracle_descents(oracle_inverse(word)))
            assert counts[word] == weight * 4**n

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


class TestBlocks:
    # Block b of a run draws from the key (seed, b), and the run's histogram
    # is the sum of its blocks': each block read as the one-call reference
    # reads a generator of that key, at any block size.
    @pytest.mark.parametrize("k, n", [(1, 4), (2, 7), (3, 30), (50, 52), (2**40, 13)])
    def test_walks_cross_blocks(self, block_rows, k, n, monkeypatch):
        d, c = [], []
        for b, blk in enumerate(sampler._blocks(150, None)):
            rows, rng = blk.stop - blk.start, sampler._stream_generator(3, b)
            words = _insertion_words(k, n, rows, rng)
            d += sampler._descents_per_row(words).tolist()
            c += [oracle_cyclic_descents(w) for w in words.tolist()]
        config = SamplerConfig(k=k, n=n, count=150, seed=3)
        assert _run_bin_counts(monkeypatch, lambda: sample_statistic("R", "d", config)) == (
            _bin_counts(d)
        )
        assert _run_bin_counts(monkeypatch, lambda: sample_statistic("C", "c", config)) == (
            _bin_counts(c)
        )

    @pytest.mark.parametrize("k, n", [(2, 2), (10, 52), ("n", 30)])
    def test_cut_descents_cross_blocks(self, block_rows, k, n, monkeypatch):
        k = n if k == "n" else k
        d = []
        for b, blk in enumerate(sampler._blocks(150, None)):
            rows, rng = blk.stop - blk.start, sampler._stream_generator(8, b)
            words = _insertion_words(k, n, rows, rng)
            shift = _cut_positions(n, rows, rng)
            d += [oracle_descents(np.roll(w, -s).tolist()) for w, s in zip(words, shift)]
        config = SamplerConfig(k=k, n=n, count=150, seed=8)
        assert _run_bin_counts(monkeypatch, lambda: sample_statistic("C", "d", config)) == (
            _bin_counts(d)
        )

    @pytest.mark.parametrize("n, rounds", [(1, 2), (13, 1), (52, 7), (130, 2)])
    def test_riffle_crosses_blocks(self, block_rows, n, rounds, monkeypatch):
        inverse = []
        for b, blk in enumerate(sampler._blocks(150, None)):
            rows, rng = blk.stop - blk.start, sampler._stream_generator(4, b)
            words = _double_argsort_words(n, rounds, rows, rng)
            inverse += [oracle_descents(oracle_inverse(w)) for w in words.tolist()]
        run = lambda: riffle_summary(n, rounds, count=150, seed=4)
        assert _run_bin_counts(monkeypatch, run) == _bin_counts(inverse)

    # One block's rows: _BLOCK_BYTES over a row's temporaries, 48 bytes a walk
    # row, 48 + 2(n+1) a C/d row and 24 a riffle card. With the seed and the
    # count they fix the output.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize(
        "rows, run, kernel",
        [
            (
                43_690,
                lambda count: sample_statistic("R", "d", SamplerConfig(4, 6, count, seed=9)),
                lambda rows, rng: sampler._insertion_walk(
                    sampler._threshold_tables(4, 6), 6, rows, rng
                )[0],
            ),
            (
                13_617,
                lambda count: sample_statistic("C", "d", SamplerConfig(10, 52, count, seed=9)),
                lambda rows, rng: sampler._cut_descents(
                    sampler._threshold_tables(10, 52), 52, rows, rng
                ),
            ),
            (
                1_680,
                lambda count: riffle_summary(52, 7, count=count, seed=9),
                lambda rows, rng: sampler._inverse_descents(sampler._gsr_words(52, 7, rows, rng)),
            ),
        ],
        ids=["R-d", "C-d", "riffle"],
    )
    def test_runs_sum_their_blocks(self, rows, run, kernel, offset, monkeypatch):
        count = rows + offset
        # Past one block's rows, two blocks share the rows evenly, the first the larger.
        sizes = [count] if offset <= 0 else [count - count // 2, count // 2]
        blocks = [kernel(size, sampler._stream_generator(9, b)) for b, size in enumerate(sizes)]
        want = _bin_counts(np.concatenate(blocks).tolist())
        assert _run_bin_counts(monkeypatch, lambda: run(count)) == want

    @pytest.mark.parametrize("count", [1, 2, 1000, 1001])
    @pytest.mark.parametrize("row_bytes", [1, 48, 10**9])
    def test_blocks_tile_the_rows(self, count, row_bytes, monkeypatch):
        monkeypatch.setattr(sampler, "_BLOCK_BYTES", 4096)
        blocks = sampler._blocks(count, row_bytes)
        assert blocks[0].start == 0 and blocks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        # As few blocks as the budget allows, sharing the rows evenly, largest first.
        cap = max(1, 4096 // row_bytes)
        sizes = [b.stop - b.start for b in blocks]
        assert len(sizes) == -(-count // cap) and max(sizes) <= cap
        assert sizes == sorted(sizes, reverse=True) and sizes[0] - sizes[-1] <= 1


class TestMemory:
    # tracemalloc sees numpy's buffers. A run here draws blocks of 2,000
    # rows on one thread, each counted before the next reuses its arrays,
    # so its peak barely grows from 16k to 32k rows: a row keeps no state
    # past its block, and a block's slice (about 120 bytes) is shared by
    # its rows.
    @staticmethod
    def _bytes_per_row(run, monkeypatch):
        monkeypatch.setattr(sampler, "_blocks", _blocks_of(2000))
        monkeypatch.setattr(sampler, "_usable_cpus", lambda: 1)
        run(16_000)  # first-call allocations (numpy's, the exact law's) are not a row's
        peaks = []
        for count in (16_000, 32_000):
            tracemalloc.start()
            try:
                run(count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return (peaks[1] - peaks[0]) / 16_000

    def test_sampling_histograms_block_by_block(self, monkeypatch):
        def run(count):
            sample_statistic("R", "d", SamplerConfig(k=4, n=6, count=count, seed=1))

        assert self._bytes_per_row(run, monkeypatch) < 1

    def test_cut_walk_keeps_no_row_past_its_block(self, monkeypatch):
        def run(count):
            sample_statistic("C", "d", SamplerConfig(k=10, n=20, count=count, seed=1))

        assert self._bytes_per_row(run, monkeypatch) < 1

    def test_riffle_keeps_no_deck_past_its_block(self, monkeypatch):
        run = lambda count: riffle_summary(20, 3, count=count, seed=1)
        assert self._bytes_per_row(run, monkeypatch) < 1

    @pytest.mark.parametrize("k, n", [(10, 52), (50, 200), (2**40, 60)])
    def test_cut_walk_block_keeps_within_the_block_bytes(self, k, n):
        # A full C/d block, its tables built beforehand as a run builds them.
        rows = sampler._BLOCK_BYTES // (sampler._ROW_BYTES + 2 * (n + 1))
        tables = sampler._threshold_tables(k, n)
        sampler._cut_descents(tables, n, 100, _rng())  # first-call allocations
        tracemalloc.start()
        try:
            sampler._cut_descents(tables, n, rows, _rng())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sampler._BLOCK_BYTES


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
        # Blocks of 100 walk rows: each run below has more blocks than CPUs.
        monkeypatch.setattr(sampler, "_BLOCK_BYTES", 100 * sampler._ROW_BYTES)
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


class TestMemoryCheck:
    def test_rows_past_physical_memory_are_refused(self, monkeypatch):
        monkeypatch.setattr(os, "sysconf", lambda name: 1 << 20, raising=False)
        sampler._check_memory(1 << 20, 1 << 20)
        with pytest.raises(UserInputError, match="--count"):
            sampler._check_memory((1 << 20) + 1, 1 << 20)

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_no_report_of_physical_memory_skips_the_check(self, monkeypatch, error):
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(os, "sysconf", sysconf, raising=False)
        sampler._check_memory(2**63 - 1, 2**20)


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
