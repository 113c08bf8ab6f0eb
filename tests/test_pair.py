"""Exchangeable rotation pair: conditional laws, drift, diagnostics."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import fraction_pmf, oracle_cut_weight, oracle_cyclic_descents, oracle_descents
from shufflestats.errors import UserInputError
from shufflestats.eulerian import eulerian_value
from shufflestats.pair import (
    PairLaw,
    central_eulerian_ratio,
    drift,
    g_remainder,
    mean_abs_deviation_uniform_d,
    newton_check,
    nogood_diagnostic,
    rotation_conditional_law,
)
from shufflestats.permutations import Permutation

F = Fraction


def rotate(word, s):
    return word[s:] + word[:s]


class TestRotationLaw:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_orbit_enumeration(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            law = rotation_conditional_law(Permutation(word))
            counts = Counter(oracle_descents(rotate(word, s)) for s in range(n))
            want = {v: F(m, n) for v, m in sorted(counts.items())}
            assert dict(law.items()) == want

    @pytest.mark.parametrize("n", range(2, 7))
    def test_int_built_law_equals_and_hashes_like_the_fraction_built_one(self, n):
        # The law is held over the denominator n; built from reduced
        # Fraction(c, n) masses it sits over their lcm instead.
        for word in itertools.permutations(range(1, n + 1)):
            law = rotation_conditional_law(Permutation(word))
            counts = Counter(oracle_descents(rotate(word, s)) for s in range(n))
            ref = fraction_pmf((v, F(c, n)) for v, c in counts.items())
            assert law == ref and ref == law
            assert hash(law) == hash(ref)
            assert law.items() == ref.items()

    def test_rejects_singleton(self):
        with pytest.raises(UserInputError):
            rotation_conditional_law(Permutation((1,)))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_drift_is_mean_shift(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            law = rotation_conditional_law(p)
            assert drift(p) == law.mean() - oracle_descents(word)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_drift_has_zero_mean_under_cut_measure(self, k, n):
        total = sum(
            oracle_cut_weight(k, n, oracle_cyclic_descents(w)) * drift(Permutation(w))
            for w in itertools.permutations(range(1, n + 1))
        )
        assert total == 0


class TestPairLaw:
    @pytest.mark.parametrize("k", [None, 1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_joint_matches_uniform_rotation_enumeration(self, k, n):
        # the second coordinate applies a uniformly random rotation; the
        # orbit of any word stays within {c-1, c}, so steps are +-1 or 0
        law = PairLaw.build(n, k)
        joint: dict[tuple[int, int], Fraction] = {}
        fact = math.factorial(n)
        for word in itertools.permutations(range(1, n + 1)):
            if k is None:
                weight = F(1, fact)
            else:
                weight = oracle_cut_weight(k, n, oracle_cyclic_descents(word))
            d = oracle_descents(word)
            for s in range(n):
                pair = (d, oracle_descents(rotate(word, s)))
                joint[pair] = joint.get(pair, F(0)) + weight / n
        values = range(n)
        for a in values:
            for b in values:
                assert law.joint(a, b) == joint.get((a, b), F(0)), (a, b)

    def test_joint_is_exchangeable(self):
        law = PairLaw.build(7, 2)
        for r in law.support:
            assert law.joint(r, r + 1) == law.joint(r + 1, r)

    def test_rows_are_conditional_laws(self):
        law = PairLaw.build(6, 3)
        for i, _ in enumerate(law.support):
            assert law.down[i] + law.stay[i] + law.up[i] == 1
            assert min(law.down[i], law.stay[i], law.up[i]) >= 0

    def test_conditional_drift_matches_enumeration(self):
        k, n = 2, 5
        num: dict[int, Fraction] = {}
        den: dict[int, Fraction] = {}
        for word in itertools.permutations(range(1, n + 1)):
            w = oracle_cut_weight(k, n, oracle_cyclic_descents(word))
            r = oracle_descents(word)
            for s in range(n):
                step = oracle_descents(rotate(word, s)) - r
                num[r] = num.get(r, F(0)) + w * F(step, n)
            den[r] = den.get(r, F(0)) + w
        mean = sum(F(r) * m for r, m in den.items())
        second = sum(F(r * r) * m for r, m in den.items())
        var = second - mean * mean
        # E(W' - W | d = r) = G(r) - W(r)/n
        pair = g_remainder(n, k)
        sqrt_var = math.sqrt(float(pair.var_d))
        g_values = dict(pair.G_values)
        for r, total in den.items():
            if not total:
                continue  # value unreachable at this k, conditional undefined
            want = float(num[r] / total) / math.sqrt(float(var))
            w = float(r - pair.mean_d) / sqrt_var
            assert g_values[r] - w / n == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestRemainder:
    def test_frozen_single_pile_case(self):
        pair = g_remainder(5, k=1)
        assert pair.abs_g_scaled == F(32, 125)
        expected_abs_g = float(pair.abs_g_scaled) / math.sqrt(float(pair.var_d))
        assert expected_abs_g == pytest.approx(0.64, abs=1e-13)
        values = dict(pair.G_values)
        assert values[0] == pytest.approx(1.6, abs=1e-12)
        assert values[1] == pytest.approx(-0.4, abs=1e-12)

    def test_uniform_mode_runs_identity_cross_check(self):
        # uniform mode recomputes the aggregate through two independent
        # simplifications and raises CertificationError on mismatch
        pair = g_remainder(6, k=None)
        assert pair.abs_g_scaled > 0
        assert pair.lam == F(1, 6)

    def test_mean_abs_deviation(self):
        assert mean_abs_deviation_uniform_d(3) == F(1, 3)
        # direct enumeration cross-check at n = 5
        words = list(itertools.permutations(range(1, 6)))
        mean = F(sum(oracle_descents(w) for w in words), len(words))
        mad = sum(abs(F(oracle_descents(w)) - mean) for w in words) / len(words)
        assert mean_abs_deviation_uniform_d(5) == mad


class TestNewtonInequalities:
    def test_exhaustive_up_to_60(self):
        record = newton_check(60)
        assert record.n_max == 60
        assert record.cases > 0

    def test_equality_points_are_odd_midpoints(self):
        record = newton_check(12)
        assert record.equality_points == ((3, 1), (5, 2), (7, 3), (9, 4), (11, 5))

    def test_validation(self):
        with pytest.raises(UserInputError):
            newton_check(2)


class TestNogoodDiagnostic:
    def test_rows_stay_positive_and_dominated(self):
        rows = nogood_diagnostic(4, 14)
        values = [row.value_float for row in rows]
        assert all(v > 0 for v in values)
        assert all(
            row.value_float >= row.lower_bound_float - 1e-12 for row in rows
        )
        assert min(values) >= max(values) / 2
        assert min(values) == pytest.approx(0.8956685895029601, abs=1e-13)
        assert max(values) == pytest.approx(1.4587029851558215, abs=1e-13)

    def test_frozen_first_rows(self):
        rows = nogood_diagnostic(4, 5)
        assert rows[0].n == 4
        assert rows[0].value_scaled == F(3, 4)
        assert rows[0].var_d == F(5, 12)
        assert rows[0].value_float == pytest.approx(1.1618950038622251, abs=1e-14)
        assert rows[0].lower_bound_float == pytest.approx(
            0.87837294523302978, abs=1e-14
        )
        assert rows[1].value_scaled == F(19, 30)
        assert rows[1].var_d == F(1, 2)

    def test_validation(self):
        with pytest.raises(UserInputError):
            nogood_diagnostic(2, 10)
        with pytest.raises(UserInputError):
            nogood_diagnostic(6, 5)


class TestCentralRatio:
    def test_exact_structure(self):
        ratio = central_eulerian_ratio(60)
        assert ratio == F(eulerian_value(59, 30), math.factorial(59))
        assert float(ratio) == pytest.approx(0.17796581250299617, abs=1e-15)

    def test_square_root_asymptote(self):
        for n, tol in ((20, 0.01), (60, 0.005), (200, 0.002)):
            ratio = float(central_eulerian_ratio(n))
            target = math.sqrt(6 / (n * math.pi))
            assert abs(ratio - target) / target < tol

    def test_smallest_cases(self):
        assert central_eulerian_ratio(2) == 1
        assert central_eulerian_ratio(3) == F(1, 2)
