"""Exact pmf container and the two shuffle measures."""

import itertools
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    oracle_cut_weight,
    oracle_pmf,
    oracle_shuffle_weight,
    parsimony_law,
    pmf_as_dict,
    stat_pairs,
)
from shufflestats import cli, eulerian
from shufflestats.errors import UserInputError
from shufflestats.measures import (
    ExactPmf,
    c_pmf_C,
    c_pmf_uniform,
    c_weight,
    d_pmf_C,
    d_pmf_R,
    d_pmf_uniform,
    parsimony_distance,
    r_weight,
    statistic_law,
)
from shufflestats.permutations import cyclic_descent_count, cyclic_rotate, descent_count

F = Fraction


class TestExactPmf:
    def test_merges_and_trims(self):
        pmf = ExactPmf(4, [(0, 2), (0, 1), (1, 1), (2, 0)])
        assert pmf.support == (0, 1)
        assert pmf.prob(0) == F(3, 4)
        assert pmf.prob(2) == 0
        assert isinstance(pmf.prob(2), Fraction)

    def test_validation(self):
        with pytest.raises(UserInputError):
            ExactPmf(2, [(0, 1)])
        with pytest.raises(UserInputError):
            ExactPmf(2, [(0, 3), (1, -1)])
        with pytest.raises(UserInputError):
            ExactPmf(1, [(-1, 1)])

    def test_immutable(self):
        pmf = ExactPmf(1, [(0, 1)])
        with pytest.raises(AttributeError):
            pmf.support = (1,)

    def test_moments(self):
        pmf = ExactPmf(4, [(0, 1), (2, 3)])
        assert pmf.mean() == F(3, 2)
        assert pmf.variance() == F(3, 4)

    def test_pushforward_collapses(self):
        pmf = ExactPmf(4, [(0, 1), (1, 1), (2, 2)])
        halved = pmf.pushforward(lambda v: v // 2)
        assert pmf_as_dict(halved) == {0: F(1, 2), 1: F(1, 2)}

    def test_l1_distance(self):
        a = ExactPmf(2, [(0, 1), (1, 1)])
        b = ExactPmf(2, [(1, 1), (2, 1)])
        assert a.l1_distance(b) == F(1)
        assert a.l1_distance(a) == 0

    def test_equality_and_hash(self):
        a = ExactPmf(2, [(0, 1), (1, 1)])
        b = ExactPmf(4, [(1, 2), (0, 2)])
        assert a == b and b == a
        assert a != ExactPmf(3, [(0, 1), (1, 2)])
        # A law is not hashable; its reduced items() are, alike for equal laws.
        with pytest.raises(TypeError):
            hash(a)
        assert hash(a.items()) == hash(b.items())

    def test_serialization(self):
        pmf = ExactPmf(4, [(0, 3), (1, 1)])
        assert list(pmf.reduced()) == [(0, 3, 4), (1, 1, 4)]
        atoms = list(cli._reduced_atoms(pmf))
        assert atoms == [(0, 3, 4, "4"), (1, 1, 4, "4")]
        assert cli._pmf_json(atoms) == {"0": "3/4", "1": "1/4"}

    def test_point_mass(self):
        pmf = ExactPmf(1, [(5, 1)])
        assert pmf.support == (5,)
        assert pmf.mean() == 5
        assert pmf.variance() == 0

    def test_from_mapping(self):
        pmf = ExactPmf(3, {1: 1, 2: 2}.items())
        assert pmf.prob(2) == F(2, 3)


class TestMeasureSpec:
    """A measure (family, k, n): its per-permutation weights and its checks."""

    @pytest.mark.parametrize(
        "family,k,n",
        [("Q", 1, 2), ("R", 0, 2), ("R", 1, 0), ("C", 1, 1)],
    )
    def test_invalid(self, family, k, n):
        with pytest.raises(UserInputError):
            statistic_law(family, "d").pmf(k, n)

    def test_per_permutation_weights(self):
        for (d, c), word in zip(
            stat_pairs(3), itertools.permutations((1, 2, 3))
        ):
            assert r_weight(2, 3, descent_count(word)) == oracle_shuffle_weight(2, 3, d)
            assert c_weight(2, 3, cyclic_descent_count(word)) == oracle_cut_weight(2, 3, c)

    def test_cut_weight_is_rotation_invariant(self):
        for word in itertools.permutations(range(1, 6)):
            w = c_weight(3, 5, cyclic_descent_count(word))
            assert all(
                c_weight(3, 5, cyclic_descent_count(cyclic_rotate(word, s))) == w
                for s in range(1, 5)
            )


class TestMeasurePmfs:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_shuffle_descent_law_vs_oracle(self, k, n):
        assert pmf_as_dict(d_pmf_R(k, n)) == oracle_pmf("R", k, n, "d")

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_cut_laws_vs_oracle(self, k, n):
        assert pmf_as_dict(c_pmf_C(k, n)) == oracle_pmf("C", k, n, "c")
        assert pmf_as_dict(d_pmf_C(k, n)) == oracle_pmf("C", k, n, "d")

    @pytest.mark.parametrize("n", range(2, 9))
    def test_prefix_laws_vs_oracle(self, n, monkeypatch):
        # Every row the laws read comes from the explicit sum here.
        made = []
        prefix = eulerian._row_prefix
        monkeypatch.setattr(eulerian, "_PREFIX_DIVISOR", 1)
        monkeypatch.setattr(eulerian, "_kept", {})
        monkeypatch.setattr(eulerian, "_row_prefix", lambda m, w: made.append(w) or prefix(m, w))
        for k in range(1, 13):
            assert pmf_as_dict(d_pmf_R(k, n)) == oracle_pmf("R", k, n, "d"), k
            assert pmf_as_dict(c_pmf_C(k, n)) == oracle_pmf("C", k, n, "c"), k
            assert pmf_as_dict(d_pmf_C(k, n)) == oracle_pmf("C", k, n, "d"), k
        assert made[:2] == [1, 1]

    def test_frozen_examples(self):
        assert pmf_as_dict(d_pmf_R(2, 2)) == {0: F(3, 4), 1: F(1, 4)}
        assert pmf_as_dict(d_pmf_C(2, 3)) == {0: F(1, 4), 1: F(2, 3), 2: F(1, 12)}
        assert pmf_as_dict(c_pmf_C(2, 3)) == {1: F(3, 4), 2: F(1, 4)}
        assert pmf_as_dict(d_pmf_C(1, 4)) == {0: F(1, 4), 1: F(3, 4)}

    def test_single_pile_degenerate_laws(self):
        # one shuffle pile forces the identity
        assert d_pmf_R(1, 5) == ExactPmf(1, [(0, 1)])
        # one cut pile spreads mass over the n rotations of the identity,
        # all of which have exactly one cyclic descent
        for n in range(2, 9):
            assert c_pmf_C(1, n) == ExactPmf(1, [(1, 1)])
            pmf = d_pmf_C(1, n)
            assert pmf_as_dict(pmf) == {0: F(1, n), 1: F(n - 1, n)}

    @pytest.mark.parametrize("n", range(2, 7))
    def test_uniform_laws(self, n):
        d_counts = Counter(d for d, _ in stat_pairs(n))
        c_counts = Counter(c for _, c in stat_pairs(n))
        fact = sum(d_counts.values())
        assert pmf_as_dict(d_pmf_uniform(n)) == {
            v: F(m, fact) for v, m in sorted(d_counts.items())
        }
        assert pmf_as_dict(c_pmf_uniform(n)) == {
            v: F(m, fact) for v, m in sorted(c_counts.items())
        }

    def test_validation(self):
        with pytest.raises(UserInputError):
            d_pmf_R(0, 3)
        with pytest.raises(UserInputError):
            c_pmf_C(2, 1)


class TestTransfer:
    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("k", range(1, 11))
    def test_descent_law_transfers_to_shifted_cut_law(self, k, n):
        shifted = c_pmf_C(k, n + 1).pushforward(lambda c: c - 1)
        assert d_pmf_R(k, n) == shifted

    def test_transfer_output(self):
        assert pmf_as_dict(c_pmf_C(3, 5).pushforward(lambda c: c - 1)) == {
            0: F(5, 27),
            1: F(55, 81),
            2: F(11, 81),
        }

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("k", range(1, 11))
    def test_statistic_proximity_bound(self, k, n):
        gap = d_pmf_C(k, n).l1_distance(c_pmf_C(k, n))
        assert gap <= F(2 * k, n)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_convergence_to_uniform(self, n):
        k = 2**20
        gap = d_pmf_R(k, n).l1_distance(d_pmf_uniform(n))
        assert gap < F(10 * n * n, 2**20)
        assert gap > 0


class TestParsimony:
    def test_riffle_pushforward(self):
        assert pmf_as_dict(parsimony_law("R", 1, 2)) == {0: F(3, 4), 1: F(1, 4)}

    @pytest.mark.parametrize("measure", ["R", "C"], ids=["riffle", "cut_riffle"])
    def test_zero_rounds_is_degenerate(self, measure):
        assert parsimony_law(measure, 0, 5) == ExactPmf(1, [(0, 1)])

    def test_mass_is_conserved(self):
        for r in range(0, 5):
            pmf = parsimony_law("R", r, 6)
            assert sum(m for _, m in pmf.items()) == 1

    def test_round_cap(self):
        with pytest.raises(UserInputError):
            parsimony_law("R", 63, 4)

    def test_bad_flavor(self):
        with pytest.raises(UserInputError):
            parsimony_distance(2, "both")
