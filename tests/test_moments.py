"""Exact moment formulas, Bernoulli machinery, asymptotic regime."""

import json
import math
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import oracle_moment
from shufflestats import cli, moments
from shufflestats.errors import UserInputError
from shufflestats.moments import (
    ALPHA_THRESHOLD,
    asymptotic_mean_c,
    asymptotic_variance_c,
    bernoulli_closed_forms,
    bernoulli_numbers,
    estimate0_deviation,
    moments_c_C,
    moments_d_C,
    moments_d_R,
    power_sum,
    use1_mean,
)

F = Fraction

_TAIL_TERMS = 400


def bernoulli_tail_exact(alpha: float, l: int, start: int) -> float:
    """Numerical value of sum_{t=start}^{_TAIL_TERMS} |B_t| t^l / (alpha^t t!).

    The reference that the tail majorant 4 * _geometric_power_tail must dominate.
    """
    bern = bernoulli_numbers(_TAIL_TERMS)
    with mp.workdps(100):
        a = mp.mpf(alpha)
        total = mp.mpf(0)
        for t in range(start, _TAIL_TERMS + 1):
            b = bern[t]
            if not b:
                continue
            total += (
                abs(mp.mpf(b.numerator)) / b.denominator * mp.mpf(t) ** l
                / (a**t * mp.factorial(t))
            )
        return float(total)


def four_pass_partial(alpha, part):
    """One Bernoulli series summed on its own, as four separate passes did."""
    bern = bernoulli_numbers(200 + 1)
    with mp.workdps(100):
        a = mp.mpf(alpha)
        total = mp.mpf(0)
        for t in range(200 + 1):
            b = bern[t + 1] if part in (3, 4) else bern[t]
            if part in (2, 4):
                w = math.comb(t, 2)
                if not w:
                    continue
                b = b * w
            if not b:
                continue
            total += (
                mp.mpf(b.numerator) / b.denominator / (mp.factorial(t) * a**t)
            )
        return total


# bernoulli_closed_forms before its check summed the series in one pass.
CLOSED_FORM_DOUBLES = {
    0.2: (0.033918274531521166, 0.26190400099997313, -0.027364709494656057, -0.1847587230780504),
    0.25: (0.07462944145509619, 0.3267811861491228, -0.057364469474297054, -0.20437508292165701),
    0.5: (0.3130352854993313, 0.226656848759709, -0.2055131877334896, -0.08438182969921972),
    1.0: (0.5819767068693265, 0.07547378935470138, -0.33869688733846587, -0.014814247630898985),
    2.0: (0.7707470412683991, 0.0203201609825728, -0.4173549619795836, -0.0020223999240786533),
    3.7: (0.8709446352559058, 0.006042896581443367, -0.4550643482289129, -0.0003261894111366501),
    10.0: (0.9508331944775049, 0.0008325004958003585, -0.4833388869054231, -1.664683927820214e-05),
    100.0: (0.9950083333194445, 8.33325000049603e-06, -0.49833333888886905, -1.6666468255357136e-08),
}


class TestExactMoments:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_cut_moments_vs_oracle(self, k, n):
        c_rep, d_rep = moments_c_C(k, n), moments_d_C(k, n)
        assert c_rep.mean_exact == oracle_moment("C", k, n, "c", 1)
        assert c_rep.second_exact == oracle_moment("C", k, n, "c", 2)
        assert d_rep.mean_exact == oracle_moment("C", k, n, "d", 1)
        assert d_rep.second_exact == oracle_moment("C", k, n, "d", 2)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_shuffle_moments_vs_oracle(self, k, n):
        report = moments_d_R(k, n)
        e1 = oracle_moment("R", k, n, "d", 1)
        e2 = oracle_moment("R", k, n, "d", 2)
        assert report.mean_exact == e1
        assert report.second_exact == e2
        assert report.variance_exact == e2 - e1 * e1

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("k", range(1, 9))
    def test_derived_identities_against_enumeration(self, k, n):
        # both sides computed from the enumeration oracle alone
        e_c1 = oracle_moment("C", k, n, "c", 1)
        e_c2 = oracle_moment("C", k, n, "c", 2)
        e_d1 = oracle_moment("C", k, n, "d", 1)
        e_d2 = oracle_moment("C", k, n, "d", 2)
        assert e_d1 == F(n - 1, n) * e_c1
        assert e_d2 == (1 - F(2, n)) * e_c2 + e_c1 / n
        assert use1_mean(k, n) == (e_c2 - e_c1) / n

    def test_frozen_values(self):
        assert moments_c_C(2, 3).mean_exact == F(5, 4)
        assert moments_c_C(1, 5).mean_exact == 1
        assert moments_c_C(2, 2).mean_exact == 1
        assert moments_c_C(2, 3).second_exact == F(7, 4)
        assert moments_c_C(1, 4).second_exact == 1
        assert moments_d_C(2, 3).mean_exact == F(5, 6)
        assert moments_d_C(1, 7).mean_exact == F(6, 7)
        assert use1_mean(2, 3) == F(1, 6)
        assert moments_c_C(2, 3).variance_exact == F(7, 4) - F(25, 16)
        assert moments_d_C(2, 3).variance_exact == moments_d_C(2, 3).second_exact - F(25, 36)

    def test_shuffle_side_frozen_values(self):
        rep = moments_d_R(2, 2)
        assert rep.mean_exact == F(1, 4)
        assert rep.variance_exact == F(3, 16)
        degenerate = moments_d_R(1, 6)
        assert degenerate.mean_exact == 0
        assert degenerate.variance_exact == 0

    def test_validation(self):
        for report in (moments_c_C, moments_d_C, use1_mean):
            with pytest.raises(UserInputError):
                report(2, 1)
            with pytest.raises(UserInputError):
                report(0, 4)

    @pytest.mark.parametrize("report", [moments_c_C, moments_d_C, moments_d_R])
    def test_each_report_sums_powers_twice(self, report, monkeypatch):
        # Below the switch both sums come from one table of powers; past
        # it, each is one power_sum call reading the p + 1 powers r <= p.
        tables, calls = [], []
        powers, power_sum_ = moments._powers, moments.power_sum

        def counted_table(p, a):
            tables.append((p, a))
            return powers(p, a)

        def counted_sum(p, a):
            calls.append((p, a))
            return power_sum_(p, a)

        monkeypatch.setattr(moments, "_powers", counted_table)
        monkeypatch.setattr(moments, "power_sum", counted_sum)
        report(9, 6)
        assert (len(tables), calls) == (1, [])
        tables.clear()
        report(2**20, 6)
        assert len(calls) == 2
        assert tables == [(p, p + 1) for p, _ in calls]
        assert [a for _, a in calls] == [2**20] * 2


class TestBernoulli:
    def test_small_values(self):
        assert bernoulli_numbers(0)[0] == 1
        assert bernoulli_numbers(1)[1] == F(-1, 2)
        assert bernoulli_numbers(2)[2] == F(1, 6)
        assert bernoulli_numbers(4)[4] == F(-1, 30)
        assert bernoulli_numbers(12)[12] == F(-691, 2730)

    def test_odd_values_vanish(self):
        for t in range(3, 32, 2):
            assert bernoulli_numbers(t)[t] == 0

    def test_shared_cache_grows(self):
        values = bernoulli_numbers(6)
        assert len(values) > 6
        assert values[6] == F(1, 42)
        grown = bernoulli_numbers(80)
        assert len(grown) > 80
        assert grown[:len(values)] == values
        assert grown[6] == F(1, 42)

    @pytest.mark.parametrize("p", range(1, 13))
    def test_power_sum_routes_agree(self, p, monkeypatch):
        # both routes compute sum of r^p over 0 <= r < a, a <= p + 1 included
        for a in range(0, 20):
            direct = power_sum(p, a)
            assert direct == sum(r**p for r in range(a))
            with monkeypatch.context() as forced:
                forced.setattr(moments, "_DIFFERENCES_PER_P", 0)
                assert power_sum(p, a) == direct

    def test_power_sum_zeroth_power(self):
        # 0^0 counts as 1, so the p = 0 sum over r < a is a itself
        assert power_sum(0, 7) == 7
        assert power_sum(0, 0) == 0

    @pytest.mark.parametrize("n", range(2, 21))
    def test_series_route_matches_exact_mean(self, n, monkeypatch):
        # E(c) = k - n S(n-1, k) / k^(n-1), so the mean's power sum by differences
        monkeypatch.setattr(moments, "_DIFFERENCES_PER_P", 0)
        for k in (1, 2, 3, 7, n, 3 * n):
            assert power_sum(n - 1, k) == sum(r ** (n - 1) for r in range(k))


class TestElementaryEstimates:
    @pytest.mark.parametrize("n", [2, 5, 10, 50, 100, 200])
    def test_deviation_bound_holds(self, n):
        for t in range(0, min(n, 10) + 1):
            lhs, rhs = estimate0_deviation(n, t)
            assert lhs <= rhs

    def test_deviation_validation(self):
        with pytest.raises(UserInputError):
            estimate0_deviation(3, 4)

    @pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("l", [0, 2, 4])
    def test_tail_bound_dominates_tail(self, alpha, l):
        # |B_t|/t! <= 4 (2 pi)^-t, so the tail is at most 4 sum t^l q^t
        for start in (1, 3):
            exact = bernoulli_tail_exact(alpha, l, start)
            with mp.workdps(100):
                q = 1 / (2 * mp.pi * mp.mpf(alpha))
                bound = float(4 * moments._geometric_power_tail(q, l, start))
            assert 0 <= exact <= bound


class TestAsymptotics:
    def test_threshold_constant(self):
        assert ALPHA_THRESHOLD == pytest.approx(1 / (2 * math.pi), rel=1e-15)

    def test_closed_forms_at_one(self):
        parts = bernoulli_closed_forms(1.0)
        assert parts[0] == pytest.approx(0.5819767, abs=5e-7)
        assert parts[1] == pytest.approx(0.0754738, abs=5e-7)
        assert parts[2] == pytest.approx(-0.3386969, abs=5e-7)
        assert parts[3] == pytest.approx(-0.0148142, abs=5e-7)

    @pytest.mark.parametrize("alpha", [0.2, 0.5, 1.0, 2.0, 10.0])
    def test_closed_forms_self_certify(self, alpha):
        # the routine raises CertificationError if any closed form
        # disagrees with its series evaluation; reaching here is the test
        parts = bernoulli_closed_forms(alpha)
        assert len(parts) == 4

    @pytest.mark.parametrize("alpha", sorted(CLOSED_FORM_DOUBLES))
    def test_one_pass_partials_match_four_passes(self, alpha):
        with mp.workdps(100):
            partials = moments._series_partials(mp.mpf(alpha))
        want = [four_pass_partial(alpha, part)._mpf_ for part in (1, 2, 3, 4)]
        assert [v._mpf_ for v in partials] == want

    @pytest.mark.parametrize("alpha", sorted(CLOSED_FORM_DOUBLES))
    def test_closed_form_doubles_are_pinned(self, alpha):
        assert bernoulli_closed_forms(alpha) == CLOSED_FORM_DOUBLES[alpha]

    def test_closed_forms_reject_divergent_alpha(self):
        with pytest.raises(UserInputError):
            bernoulli_closed_forms(0.1)

    def test_mean_slope_and_intercept_at_one(self):
        m, s = asymptotic_mean_c(1.0)
        assert float(m) == pytest.approx(0.4180232931, abs=1e-9)
        assert float(s) == pytest.approx(0.07547378935, abs=1e-9)

    def test_variance_slope_at_one(self):
        v = asymptotic_variance_c(1.0)
        assert float(v) == pytest.approx(0.07303372714, abs=1e-9)

    def test_limits_at_large_alpha(self):
        m, _ = asymptotic_mean_c(1e6)
        assert abs(float(m) - 0.5) < 1e-6
        v = asymptotic_variance_c(1e6)
        assert abs(float(v) - 1 / 12) < 1e-6

    def test_asymptotics_reject_divergent_alpha(self):
        with pytest.raises(UserInputError):
            asymptotic_mean_c(ALPHA_THRESHOLD)
        with pytest.raises(UserInputError):
            asymptotic_variance_c(0.05)

    def test_mean_error_shrinks_linearly(self):
        m, s = asymptotic_mean_c(1.0)
        gaps = []
        for n in (50, 100, 200, 400):
            exact = float(moments_c_C(n, n).mean_exact)
            gaps.append(n * abs(exact - (n * float(m) + float(s))))
        # n * |error| stays bounded if the remainder is O(1/n)
        assert max(gaps) <= 2 * gaps[0]

    def test_variance_error_stays_bounded(self):
        v = float(asymptotic_variance_c(1.0))
        first = abs(float(moments_c_C(50, 50).variance_exact) - 50 * v)
        last = abs(float(moments_c_C(800, 800).variance_exact) - 800 * v)
        assert last <= first + 1


class TestReports:
    def test_report_with_asymptotics(self, capsys):
        rep = moments_c_C(50, 50)
        assert rep.mean_asym is not None
        assert rep.error_mean is not None
        assert abs(rep.error_mean) < 1e-3
        argv = ["moments", "--measure", "C", "--stat", "c", "--k", "50", "--n", "50"]
        assert cli.main(argv + ["--asymptotic"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["k"] == 50
        assert payload["mean_exact"] == str(rep.mean_exact)
        assert payload["mean_float"] == format(float(rep.mean_exact), ".17g")
        assert payload["error_mean"] == format(rep.error_mean, ".17g")

    @pytest.mark.parametrize(
        "report, k, n",
        [
            (moments_c_C, 10**308, 3),
            (moments_d_R, 10**308, 3),
            (moments_c_C, 10**300, 40),
            (moments_c_C, 10**100, 5),
            (moments_c_C, 10**30, 7),
            (moments_c_C, 2**20, 9),
            (moments_c_C, 50, 50),
            (moments_d_R, 700, 20),
        ],
        ids=["Cc-1e308-3", "Rd-1e308-3", "Cc-1e300-40", "Cc-1e100-5", "Cc-1e30-7", "Cc-2^20-9",
             "Cc-50-50", "Rd-700-20"],
    )
    def test_asymptotic_columns_match_a_high_precision_evaluation(self, report, k, n):
        # The closed forms at 4,000 digits, at the report's double alpha.
        rep = report(k, n)
        with mp.workdps(4000):
            a = mp.mpf(rep.k / rep.scale)
            e = mp.exp(1 / a)
            m = a - 1 / (e - 1)
            s = e * (-2 * a * e + 2 * a + e + 1) / (2 * a**2 * (e - 1) ** 3)
            v = e * (a**2 * (e - 1) ** 2 - e) / (a**2 * (e - 1) ** 4)
            mean_asym = rep.scale * m + s + rep.shift
            variance_asym = rep.scale * v
            mean, variance = rep.mean_exact, rep.variance_exact
            want = [
                float(mean_asym),
                float(variance_asym),
                float(mp.mpf(mean.numerator) / mean.denominator - mean_asym),
                float(mp.mpf(variance.numerator) / variance.denominator - variance_asym),
            ]
        got = [rep.mean_asym, rep.variance_asym, rep.error_mean, rep.error_variance]
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-14, abs_tol=1e-323), (got, want)

    def test_report_below_threshold_has_no_asymptotics(self):
        rep = moments_c_C(2, 100)
        assert rep.mean_asym is None
        assert rep.variance_asym is None
        assert rep.error_mean is None

    def test_shuffle_report_uses_shifted_cut_formulas(self):
        rep = moments_d_R(3, 5)
        assert rep.mean_exact == oracle_moment("R", 3, 5, "d", 1)
