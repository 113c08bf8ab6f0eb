"""Exchangeable rotation pair: conditional laws, drift, diagnostics."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from conftest import fraction_pmf, oracle_cut_weight, oracle_cyclic_descents, oracle_descents
from shufflestats import pair as pair_module
from shufflestats.errors import CertificationError, UserInputError
from shufflestats.eulerian import eulerian_value
from shufflestats.measures import ExactPmf
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

F = Fraction


def rotate(word, s):
    return word[s:] + word[:s]


class TestRotationLaw:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_orbit_enumeration(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            law = rotation_conditional_law(word)
            counts = Counter(oracle_descents(rotate(word, s)) for s in range(n))
            want = {v: F(m, n) for v, m in sorted(counts.items())}
            assert dict(law.items()) == want

    @pytest.mark.parametrize("n", range(2, 7))
    def test_int_built_law_equals_and_hashes_like_the_fraction_built_one(self, n):
        # The law is held over the denominator n; built from reduced
        # Fraction(c, n) masses it sits over their lcm instead.
        for word in itertools.permutations(range(1, n + 1)):
            law = rotation_conditional_law(word)
            counts = Counter(oracle_descents(rotate(word, s)) for s in range(n))
            ref = fraction_pmf((v, F(c, n)) for v, c in counts.items())
            assert law == ref and ref == law
            assert hash(law.items()) == hash(ref.items())
            assert law.items() == ref.items()

    def test_rejects_singleton(self):
        with pytest.raises(UserInputError):
            rotation_conditional_law((1,))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_drift_is_mean_shift(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            law = rotation_conditional_law(word)
            assert drift(word) == law.mean() - oracle_descents(word)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_drift_has_zero_mean_under_cut_measure(self, k, n):
        total = sum(
            oracle_cut_weight(k, n, oracle_cyclic_descents(w)) * drift(w)
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
        steps = {}
        for r, p, down, stay, up in zip(law.support, law.d_mass, law.down, law.stay, law.up):
            steps.update({(r, r - 1): p * down, (r, r): p * stay, (r, r + 1): p * up})
        nonzero = {pair: m for pair, m in joint.items() if m}
        assert {pair: m for pair, m in steps.items() if m} == nonzero

    def test_joint_is_exchangeable(self):
        law = PairLaw.build(7, 2)
        flows = dict(zip(law.support, zip(law.d_mass, law.down, law.up)))
        for r, (p, _, up) in flows.items():
            p_next, down_next, _ = flows.get(r + 1, (0, 0, 0))
            assert p * up == p_next * down_next

    def test_rows_are_conditional_laws(self):
        law = PairLaw.build(6, 3)
        for i, _ in enumerate(law.support):
            assert law.down[i] + law.stay[i] + law.up[i] == 1
            assert min(law.down[i], law.stay[i], law.up[i]) >= 0

    def test_conditional_drift_matches_enumeration(self):
        # E(d' - d | d = r) = up_r - down_r, exactly
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
        law = PairLaw.build(n, k)
        reachable = {r: total for r, total in den.items() if total}
        assert dict(zip(law.support, law.d_mass)) == reachable
        for i, r in enumerate(law.support):
            assert law.up[i] - law.down[i] == num[r] / den[r]


class TestRemainder:
    def test_frozen_single_pile_case(self):
        # Under C(1, 5), sqrt(Var d) G(r) = up_r - down_r + (r - E d)/n
        n = 5
        law = PairLaw.build(n, 1)
        mean = sum(r * p for r, p in zip(law.support, law.d_mass))
        var = sum(r * r * p for r, p in zip(law.support, law.d_mass)) - mean * mean
        scaled = {
            r: law.up[i] - law.down[i] + (r - mean) / n for i, r in enumerate(law.support)
        }
        abs_g_scaled = sum(p * abs(scaled[r]) for r, p in zip(law.support, law.d_mass))
        assert abs_g_scaled == F(32, 125)
        sqrt_var = math.sqrt(float(var))
        assert float(abs_g_scaled) / sqrt_var == pytest.approx(0.64, abs=1e-13)
        assert float(scaled[0]) / sqrt_var == pytest.approx(1.6, abs=1e-12)
        assert float(scaled[1]) / sqrt_var == pytest.approx(-0.4, abs=1e-12)

    def test_uniform_mode_runs_identity_cross_check(self):
        # the aggregate is recomputed through two independent
        # simplifications, which raises CertificationError on mismatch
        assert g_remainder(6) > 0

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


def _tilted(law_of):
    """law_of with mass 1/(2 den) moved from its lowest value to its highest."""

    def tilted(*args):
        law = law_of(*args)
        lo, hi = law.support[0], law.support[-1]
        atoms = [(v, 2 * a - (v == lo) + (v == hi)) for v, a in zip(law.support, law.nums)]
        return ExactPmf(2 * law.den, atoms)

    return tilted


class TestCertificates:
    """Each CertificationError check in pair trips, with its own message, on one wrong input.

    build's step laws sum to one exactly when the d law is the rotation
    pushforward of the c law; its joint law is symmetric by construction,
    and its steps are nonnegative, so those two checks trip only on an
    altered PairLaw.
    """

    def test_rotation_law_closed_form(self, monkeypatch):
        monkeypatch.setattr(pair_module, "cyclic_rotate", lambda p, s: p)
        with pytest.raises(CertificationError, match="rotation law mismatch for 2 1 3"):
            rotation_conditional_law((2, 1, 3))

    def test_drift_against_the_rotation_law(self, monkeypatch):
        point_mass = ExactPmf(1, [(0, 1)])
        monkeypatch.setattr(pair_module, "rotation_conditional_law", lambda p: point_mass)
        with pytest.raises(CertificationError, match="drift mismatch for 2 1 3"):
            drift((2, 1, 3))

    def test_step_laws_sum_to_one(self):
        law = PairLaw.build(5, 2)
        stay = (law.stay[0] + F(1, 7),) + law.stay[1:]
        with pytest.raises(CertificationError, match="conditional law at r=0 sums to 8/7"):
            law._replace(stay=stay)._check_exchangeable()

    def test_step_laws_certify_the_rotation_pushforward(self, monkeypatch):
        # A valid d law that is not the rotation pushforward of the c law.
        monkeypatch.setattr(pair_module, "d_pmf_C", _tilted(pair_module.d_pmf_C))
        with pytest.raises(CertificationError, match="conditional law at r=0 sums to 10/9"):
            PairLaw.build(5, 2)

    def test_step_probabilities_are_nonnegative(self):
        law = PairLaw.build(5, 2)
        stay = (law.stay[0] - 1,) + law.stay[1:]
        up = (law.up[0] + 1,) + law.up[1:]
        with pytest.raises(CertificationError, match="negative step probability at r=0"):
            law._replace(stay=stay, up=up)._check_exchangeable()

    def test_joint_law_is_exchangeable(self):
        law = PairLaw.build(5, 2)
        d_mass = (law.d_mass[0] * 2,) + law.d_mass[1:]
        with pytest.raises(CertificationError, match=r"joint law not exchangeable at \(0, 1\)"):
            law._replace(d_mass=d_mass)._check_exchangeable()

    def test_remainder_moments_match_the_pmf(self, monkeypatch):
        monkeypatch.setattr(pair_module, "d_pmf_uniform", _tilted(pair_module.d_pmf_uniform))
        with pytest.raises(CertificationError, match="moment/pmf disagreement at n=6"):
            g_remainder(6)

    def test_remainder_aggregate_routes_agree(self, monkeypatch):
        monkeypatch.setattr(pair_module, "c_pmf_uniform", _tilted(pair_module.c_pmf_uniform))
        message = "uniform G aggregate simplification mismatch at n=6"
        with pytest.raises(CertificationError, match=message):
            g_remainder(6)

    def test_newton_criterion(self, monkeypatch):
        monkeypatch.setattr(pair_module, "eulerian_row", lambda m: (5, 1) if m == 2 else ())
        with pytest.raises(CertificationError, match="Newton criterion wrong at n=3, r=1"):
            newton_check(3)

    def test_diagnostic_odd_n_identity(self, monkeypatch):
        exact = pair_module.mean_abs_deviation_uniform_d

        def off_by_a_little(n):
            return exact(n) + F(1, 10**6)

        monkeypatch.setattr(pair_module, "mean_abs_deviation_uniform_d", off_by_a_little)
        with pytest.raises(CertificationError, match="odd-n aggregate identity failed at n=5"):
            nogood_diagnostic(5, 5)

    def test_diagnostic_dominance(self, monkeypatch):
        exact = pair_module.eulerian_value
        monkeypatch.setattr(pair_module, "eulerian_value", lambda m, i: 2 * exact(m, i))
        message = "diagnostic fell below the proven lower bound at n=6"
        with pytest.raises(CertificationError, match=message):
            nogood_diagnostic(6, 6)

    def test_diagnostic_positive(self, monkeypatch):
        monkeypatch.setattr(pair_module, "g_remainder", lambda n: F(0))
        monkeypatch.setattr(pair_module, "eulerian_value", lambda m, i: 0)
        with pytest.raises(CertificationError, match="diagnostic not positive at n=4"):
            nogood_diagnostic(4, 4)
