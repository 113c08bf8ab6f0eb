"""Poisson approximation: solver invariants, exact bounds, tv sweep."""

import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, from_man_exp, mpf_add, mpf_div, mpf_mul, normalize, to_float

from shufflestats import cli
from shufflestats.errors import CertificationError, UserInputError
from shufflestats.measures import ExactPmf, d_pmf_C, d_pmf_R
from shufflestats.moments import moments_c_C
from shufflestats import stein
from shufflestats.stein import (
    STATISTIC_CODES,
    SteinSolution,
    certification_sweep,
    certified_bound,
    solve_stein,
    statistic_pushforward,
    sweep_k_values,
    tv_exact_vs_poisson,
    tv_report,
    tv_sandwich,
)

F = Fraction


class TestSolver:
    def test_point_set_solution(self):
        sol = solve_stein(1, {0}, 30)
        assert sol.g[0] == 0.0
        assert sol.g[1] == pytest.approx(1 - math.exp(-1), rel=1e-13)
        assert sol.sup_g() <= 1.0
        assert sol.sup_delta_g() <= 1.0
        assert sol.max_residual() < 1e-12

    def test_rational_rate(self):
        sol = solve_stein(F(1, 4), {0, 2}, 25)
        assert sol.sup_g() <= 1.0
        assert sol.sup_delta_g() <= 1.0
        assert sol.max_residual() < 1e-12

    def test_large_rate_with_deep_recurrence(self):
        # the regime where a double-precision forward recurrence falls
        # apart; the working-precision policy must keep it certified
        sol = solve_stein(1.0, {0, 1}, 35)
        assert sol.max_residual() < 1e-12
        sol = solve_stein(30.0, set(range(0, 40, 3)), 60)
        assert sol.sup_g() <= 1.0
        assert sol.sup_delta_g() <= 1.0
        assert sol.max_residual() < 1e-12

    def test_randomized_invariants(self):
        rng = random.Random(20260816)
        for _ in range(120):
            lam = 10 ** rng.uniform(-2, 1.4)
            j_max = rng.randint(5, 40)
            subset = {j for j in range(j_max + 1) if rng.random() < 0.4}
            sol = solve_stein(lam, subset, j_max)
            assert sol.sup_g() <= 1.0
            assert sol.sup_delta_g() <= 1.0
            assert sol.max_residual() < 1e-12

    def test_g_is_bit_identical_to_the_per_element_exponential(self):
        # The reference evaluates e^(-lambda) once per target element, the
        # solver once per call, and the reference runs on mpf objects where
        # the solver calls libmp; every rounding is the same, so the floats
        # must agree exactly.
        def reference_g(lam, target, j_max):
            lam_f = float(lam)
            amplification = math.lgamma(j_max + 1) - j_max * math.log(lam_f)
            with mp.workdps(30 + max(0, math.ceil(amplification / math.log(10.0)))):
                if isinstance(lam, Fraction):
                    lam_mp = mp.mpf(lam.numerator) / lam.denominator
                else:
                    lam_mp = mp.mpf(lam)
                p_a = mp.mpf(0)
                for a in sorted(target):
                    p_a += mp.e ** (-lam_mp) * lam_mp**a / mp.factorial(a)
                g = [mp.mpf(0)]
                for j in range(j_max):
                    g.append(((1 if j in target else 0) - p_a + j * g[j]) / lam_mp)
                return tuple(float(v) for v in g)

        rng = random.Random(12345)  # drawn as in the c05 acceptance test
        for _ in range(300):
            lam = 10 ** rng.uniform(-2.0, 1.5)
            j_max = rng.randint(5, 40)
            target = {j for j in range(j_max + 1) if rng.random() < 0.35}
            assert solve_stein(lam, target, j_max).g == reference_g(lam, target, j_max)
        # Rational rates take _rate_value's Fraction path; deeper j_max raises
        # the working precision to about 200 digits at lambda = 1/100.
        rates = [F(1, 4), F(7, 3), F(1, 100), F(31, 2), F(2, 1), 0.37, 12.5]
        for lam in rates:
            for j_max in (1, 7, 25, 44, 60):
                for _ in range(6):
                    target = {j for j in range(j_max + 1) if rng.random() < 0.35}
                    want = reference_g(lam, target, j_max)
                    assert solve_stein(lam, target, j_max).g == want

    def test_delta_g_bound_is_reached_by_the_point_set(self):
        # For A = {0}, g(1) = (1 - e^-lambda)/lambda, the bound itself: the
        # certificate must pass it, rounding included.
        for lam in (0.01, 0.3, 2.5, 31.0):
            sol = solve_stein(lam, {0}, 20)
            assert sol.sup_delta_g() == pytest.approx(-math.expm1(-lam) / lam, rel=1e-14)
            assert sol.sup_g() <= min(1.0, lam**-0.5)

    @pytest.mark.parametrize("measured", ["sup_g", "sup_delta_g"])
    def test_bounds_are_the_classical_ones(self, monkeypatch, measured):
        # At lambda = 9 the bounds are 1/3 and (1 - e^-9)/9, so a sup of 0.5,
        # below the cruder bound 1, must fail.
        monkeypatch.setattr(SteinSolution, measured, lambda self: 0.5)
        with pytest.raises(CertificationError, match="^Stein solution bound violated"):
            solve_stein(9.0, {0, 3}, 20)

    def test_validation(self):
        with pytest.raises(UserInputError):
            solve_stein(0, {0}, 10)
        with pytest.raises(UserInputError):
            solve_stein(1, {11}, 10)
        with pytest.raises(UserInputError):
            solve_stein(1, {0}, 0)


class TestExactTv:
    def test_point_mass_against_poisson(self):
        # tv(delta_0, Poisson(lam)) = 1 - e^(-lam)
        for lam in (F(1, 10), F(1, 1)):
            pmf = ExactPmf(1, [(0, 1)])
            want = 1 - math.exp(-float(lam))
            assert tv_exact_vs_poisson(pmf, lam) == pytest.approx(want, rel=1e-12)

    def test_sandwich_is_tight(self):
        pmf = d_pmf_C(1, 4).pushforward(lambda d: 1 - d)
        lo, hi = tv_sandwich(pmf, F(1, 4))
        assert 0 <= lo <= hi
        assert hi - lo < 1e-13
        assert tv_exact_vs_poisson(pmf, F(1, 4)) == pytest.approx(
            0.05529980423214878, abs=1e-14
        )

    def test_start_mass_where_its_log_cancels_past_136_bits(self):
        # log q_s = -lambda + s log lambda - log s! cancels about 157 bits
        # at lambda = s = 10^45: formed at 136 bits alone, q_s is near 1, not
        # 1.3e-23, and TV reads 5e-29. The true TVs, 1 - 4e-23 and
        # 1 - 1.3e-23, round to 1.
        lam = F(10**45)
        spread = ExactPmf(4, [(10**45, 1), (10**45 + 1, 1), (10**45 + 3, 2)])
        point = ExactPmf(4, [(10**45, 4)])
        for pmf in (spread, point):
            assert tv_exact_vs_poisson(pmf, lam) == 1.0
            assert tv_sandwich(pmf, lam) == _exact_halves(pmf, lam) == (1.0, 1.0)

    def test_sandwich_width_is_zero_or_one_ulp_on_the_default_grid(self):
        # lo and hi are the doubles of acc/2 and acc/2 + 10^-28, so the
        # 1e-13 width check in tv_exact_vs_poisson can fail only on a NaN.
        args = cli._build_parser().parse_args(["tv", "--grid"])
        laws = [
            (k, n, code)
            for n in args.n_list
            for k in sweep_k_values(n, args.k_points)
            for code in STATISTIC_CODES
        ]
        assert len(laws) == 231
        for k, n, code in laws:
            lo, hi = tv_sandwich(*statistic_pushforward(k, n, code))
            assert hi - lo in (0, math.ulp(hi)), (k, n, code)


def _mpf_object_ratio(num, den):
    shift = max(0, den.bit_length() - num.bit_length()) + mp.mp.prec + 20
    return mp.mpf(((num << shift) // den, -shift))


def mpf_object_tv_sandwich(pmf, lam):
    """tv_sandwich as it ran on mpf objects, before its loop called libmp."""
    with mp.workdps(40):
        if isinstance(lam, Fraction):
            lam_mp = mp.mpf(lam.numerator) / lam.denominator
        else:
            lam_mp = mp.mpf(lam)
        s = pmf.support[0]
        q = mp.exp(-lam_mp + s * mp.log(lam_mp) - mp.loggamma(s + 1))
        num = dict(zip(pmf.support, pmf.nums))
        den = pmf.den
        acc = mp.mpf(1)
        for j in range(s, pmf.support[-1] + 1):
            a = num.get(j)
            p = _mpf_object_ratio(a, den) if a else 0
            acc += abs(p - q) - q
            q = q * lam_mp / (j + 1)
        slop = mp.mpf(10) ** (-(40 - 12))
        lo = acc / 2
        hi = lo + slop
        return float(lo), float(hi)


def _default_grid():
    for n in (20, 50, 100, 200, 400):  # tv --grid's default --n-list
        for k in sweep_k_values(n, 20):
            for code in STATISTIC_CODES:
                yield k, n, code


class TestSandwichBitIdentity:
    """The libmp loop rounds every step as the mpf-object loop did."""

    def test_default_grid(self):
        rows = list(_default_grid())
        assert len(rows) == 231
        for k, n, code in rows:
            pmf, lam = statistic_pushforward(k, n, code)
            assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), (k, n, code)

    @pytest.mark.parametrize("n", [250, 500, 1000])
    def test_large_n(self, n):
        for k in (13, 100, 400, n):
            for code in STATISTIC_CODES:
                pmf, lam = statistic_pushforward(k, n, code)
                assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), (k, code)

    def test_k_far_above_n(self):
        for n in range(8, 13):
            for code in STATISTIC_CODES:
                pmf, lam = statistic_pushforward(2**17, n, code)
                assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), (n, code)

    def test_interior_zero_atom(self):
        # The zero atom at 2 is dropped from the support, so the loop meets
        # a missing numerator inside the range.
        pmf = ExactPmf(10, [(1, 3), (2, 0), (3, 5), (6, 2)])
        assert pmf.support == (1, 3, 6)
        for lam in (F(1, 3), F(5, 2), 0.7, 12.0):
            assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), lam


@st.composite
def sparse_laws(draw):
    """A small hand-built law whose range holds zero atoms, some of them interior."""
    nums = draw(st.lists(st.integers(0, 50), min_size=1, max_size=12))
    nums[0], nums[-1] = max(1, nums[0]), max(1, nums[-1])
    start = draw(st.integers(0, 30))
    return ExactPmf(sum(nums), [(start + i, a) for i, a in enumerate(nums)])


class TestSandwichIdentityProperty:
    """Drawn laws, with the Poisson start mass far below 2^-192 at large k."""

    @settings(max_examples=60, deadline=None)
    @given(code=st.sampled_from(STATISTIC_CODES), n=st.integers(2, 60), k=st.integers(1, 2**20))
    def test_statistic_laws(self, code, n, k):
        pmf, lam = statistic_pushforward(k, n, code)
        assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam)

    @settings(max_examples=60, deadline=None)
    @given(pmf=sparse_laws(), lam=st.floats(2.0**-160, 2.0**40))
    @example(pmf=ExactPmf(4, [(0, 1), (3, 3)]), lam=2.0**-150)  # q_s rounds to 1
    def test_float_rates_on_sparse_laws(self, pmf, lam):
        assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam)


# (k, n, code) points whose tv bytes the CLI tests and CI pin
PINNED_POINTS = [
    (500, 2000, "Cd"), (100, 1000, "R"), (2, 5000, "R"), (2**17, 10, "R"),
    (250, 1000, "Cd"), (40, 3000, "Cd"),
]


def _identity_laws():
    """Every law TestSandwichBitIdentity checks, then the pinned points."""
    for k, n, code in _default_grid():
        yield statistic_pushforward(k, n, code)
    for n in (250, 500, 1000):
        for k in (13, 100, 400, n):
            for code in STATISTIC_CODES:
                yield statistic_pushforward(k, n, code)
    for n in range(8, 13):
        for code in STATISTIC_CODES:
            yield statistic_pushforward(2**17, n, code)
    pmf = ExactPmf(10, [(1, 3), (2, 0), (3, 5), (6, 2)])
    for lam in (F(1, 3), F(5, 2), 0.7, 12.0):
        yield pmf, lam
    for k, n, code in PINNED_POINTS:
        yield statistic_pushforward(k, n, code)


def _refuse_exact_sum(*args):
    raise AssertionError("exact-sum route taken")


def _exact_halves(pmf, lam):
    """float() of S/2 and of S/2 + 10^-28, S formed by _exact_sum."""
    half = stein._exact_sum(pmf, *stein._sandwich_inputs(pmf, lam)) / 2
    return float(half), float(half + F(1, 10**28))


class TestSandwichRoutes:
    """tv_sandwich's fixed-point sum and its exact-sum route give the same doubles."""

    def test_fixed_point_route_alone(self, monkeypatch):
        # Unforced, no law here reaches the exact route.
        monkeypatch.setattr(stein, "_exact_sum", _refuse_exact_sum)
        for pmf, lam in _identity_laws():
            assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), (pmf.support, lam)

    @pytest.mark.parametrize("k", [2**62, 2**70, 10**150], ids=["2^62", "2^70", "10^150"])
    def test_divisors_past_64_bits(self, monkeypatch, k):
        # Each q step divides by j + 1 near k, so lambda's mantissa widens with it.
        monkeypatch.setattr(stein, "_exact_sum", _refuse_exact_sum)
        for n in (2, 8):
            for code in STATISTIC_CODES:
                pmf, lam = statistic_pushforward(k, n, code)
                assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), (n, code)

    def test_forced_fallback(self, monkeypatch):
        # The exact route costs about 1 s on the grid; the fixed-point
        # route's test above covers the n >= 1000 laws.
        calls = []
        exact_sum = stein._exact_sum

        def counted(*args):
            calls.append(args)
            return exact_sum(*args)

        monkeypatch.setattr(stein, "_sum_error", lambda atoms: 1 << 400)
        monkeypatch.setattr(stein, "_exact_sum", counted)
        laws = [statistic_pushforward(*row) for row in _default_grid()]
        pmf = ExactPmf(10, [(1, 3), (2, 0), (3, 5), (6, 2)])
        laws += [(pmf, lam) for lam in (F(1, 3), F(5, 2), 0.7, 12.0)]
        for pmf, lam in laws:
            assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), (pmf.support, lam)
        assert len(calls) == len(laws)

    def test_each_sum_within_its_share_of_the_bound(self):
        # Against S written from its definition, q_j = q_s lambda^(j-s) s!/j!
        # rather than stepped: 8 units of 2^-192 an atom for the fixed-point
        # sum, and no error at all for the exact sum.
        for k, n, code in _default_grid():
            if n > 50:
                continue
            pmf, lam = statistic_pushforward(k, n, code)
            lam_v, q_v = stein._sandwich_inputs(pmf, lam)
            rate, q_s = (m * F(2) ** e for m, e in (lam_v, q_v))
            s = pmf.support[0]
            num = dict(zip(pmf.support, pmf.nums))
            exact = F(1)
            for j in range(s, pmf.support[-1] + 1):
                q = q_s * rate ** (j - s) * F(math.factorial(s), math.factorial(j))
                exact += abs(F(num.get(j, 0), pmf.den) - q) - q
            atoms = pmf.support[-1] - s + 1
            fixed = F(stein._fixed_sum(pmf, lam_v, q_v), 2**stein._FIX)
            assert abs(fixed - exact) <= F(8 * atoms, 2**stein._FIX), (k, n, code)
            assert stein._exact_sum(pmf, lam_v, q_v) == exact, (k, n, code)

    def test_fixed_point_sum_within_the_stated_bound(self):
        # |_fixed_sum - 2^192 S| <= 8 units an atom, S the exact sum.
        laws = [statistic_pushforward(*row) for row in _default_grid()]
        laws += [statistic_pushforward(*row) for row in PINNED_POINTS]
        for pmf, lam in laws:
            lam_v, q = stein._sandwich_inputs(pmf, lam)
            exact = stein._exact_sum(pmf, lam_v, q) * 2**stein._FIX
            err = stein._sum_error(pmf.support[-1] - pmf.support[0] + 1)
            assert abs(stein._fixed_sum(pmf, lam_v, q) - exact) <= err, (pmf.support, lam)

    # The exact sum's ints carry q_s's exponent, about 1.44 lambda bits
    # once lambda is far above the range, so lambda stops at 2^12 here.
    @settings(max_examples=60, deadline=None)
    @given(
        pmf=sparse_laws(),
        lam=st.floats(2.0**-160, 2.0**12)
        | st.fractions(F(1, 10**6), 2**12, max_denominator=10**6),
    )
    def test_doubles_of_the_exact_sum(self, pmf, lam):
        assert tv_sandwich(pmf, lam) == _exact_halves(pmf, lam)

    def test_a_start_mass_no_poisson_law_has_is_declined(self):
        # A start mass of 2^70 is no Poisson mass: the fixed-point sum
        # declines it rather than shift q past its 2^63 ceiling.
        pmf = ExactPmf(2, [(0, 1), (1, 1)])
        assert stein._fixed_sum(pmf, (1, 0), (1, 70)) is None
        assert stein._fixed_sum(pmf, (1, 0), (3, -1)) is None  # q_0 + q_1 = 3
        assert stein._fixed_sum(pmf, (1, 0), (1, -1)) is not None


class TestBounds:
    def test_exact_bound_values(self):
        assert certified_bound(1, 7, "Cd") == F(1, 49)
        assert certified_bound(1, 7, "Cc") == F(1, 49) + F(2, 7)
        assert certified_bound(1, 9, "R") == F(21, 100)
        assert float(certified_bound(5, 200, "Cd")) == pytest.approx(6.25e-4, rel=1e-9)

    def test_deterministic_regime_floor(self):
        # at k = 1 the R-side statistic is identically zero, so the gap
        # between bound and tv is lam^2 + 2*lam - 1 + e^(-lam) >= lam^2/2
        for n in (4, 9, 19):
            rep = tv_report(1, n, "R")
            lam = 1 / (n + 1)
            assert rep.slack == pytest.approx(
                lam * lam + 2 * lam - 1 + math.exp(-lam), rel=1e-10
            )
            assert rep.slack >= lam * lam / 2


class TestPushforwards:
    def test_codes(self):
        pmf, lam = statistic_pushforward(1, 4, "Cd")
        assert dict(pmf.items()) == {0: F(3, 4), 1: F(1, 4)}
        assert lam == F(1, 4)
        pmf, lam = statistic_pushforward(1, 9, "R")
        assert pmf == ExactPmf(1, [(0, 1)])
        assert lam == F(1, 10)
        pmf, _ = statistic_pushforward(2, 5, "Cc")
        assert pmf.mean() == 2 - moments_c_C(2, 5).mean_exact
        assert all(v >= 0 for v in pmf.support)
        with pytest.raises(UserInputError):
            statistic_pushforward(1, 5, "Rd")

    def test_shuffle_code_matches_direct_pushforward(self):
        pmf, _ = statistic_pushforward(3, 6, "R")
        direct = d_pmf_R(3, 6).pushforward(lambda d: 3 - 1 - d)
        assert pmf == direct


class TestReportsAndSweep:
    def test_frozen_report(self):
        rep = tv_report(1, 9, "R")
        assert rep.lam == pytest.approx(0.1, rel=1e-15)
        assert rep.tv_exact == pytest.approx(0.09516258196404043, abs=1e-15)
        assert rep.bound == pytest.approx(0.21, rel=1e-12)
        assert rep.slack == pytest.approx(0.11483741803595957, abs=1e-13)

    def test_sweep_grid_shape(self):
        ks = sweep_k_values(200, 20)
        assert len(ks) == 20
        assert ks[0] == 1 and ks[-1] == 50
        assert ks == sorted(set(ks))
        assert sweep_k_values(4, 20) == [1]
        with pytest.raises(UserInputError):
            sweep_k_values(3, 20)

    @pytest.mark.parametrize("points", [0, -1])
    def test_sweep_rejects_nonpositive_points(self, points):
        with pytest.raises(UserInputError):
            sweep_k_values(20, points)

    def test_small_sweep_certifies(self):
        reports = certification_sweep((20,), 5, STATISTIC_CODES)
        assert len(reports) == 3 * len(sweep_k_values(20, 5))
        assert all(r.slack >= 0 for r in reports)
        assert all(r.tv_exact <= r.bound for r in reports)


def mpf_object_g(lam, target, j_max):
    """solve_stein's g as mpf-object arithmetic computes it."""
    lam_f = float(lam)
    amplification = math.lgamma(j_max + 1) - j_max * math.log(lam_f)
    with mp.workdps(30 + max(0, math.ceil(amplification / math.log(10.0)))):
        if isinstance(lam, Fraction):
            lam_mp = mp.mpf(lam.numerator) / lam.denominator
        else:
            lam_mp = mp.mpf(lam)
        p_a = mp.mpf(0)
        for a in sorted(target):
            p_a += mp.e ** (-lam_mp) * lam_mp**a / mp.factorial(a)
        g = [mp.mpf(0)]
        for j in range(j_max):
            g.append(((1 if j in target else 0) - p_a + j * g[j]) / lam_mp)
        return tuple(float(v) for v in g)


class TestWiderBitIdentity:
    """Corners of the bit-identity sweeps the c05-style draws miss."""

    def test_powers_past_the_exact_branch(self):
        # lambda = 0.1 carries 53 bits, so mpf_pow_int rounds as it squares
        # once 53 * a >= 1000, from a = 19 on.
        rng = random.Random(2204)
        for lam in (0.1, F(1, 10), 0.37):
            for j_max in (19, 25, 40, 60):
                for _ in range(4):
                    target = {a for a in range(19, j_max + 1) if rng.random() < 0.5} | {j_max}
                    assert solve_stein(lam, target, j_max).g == mpf_object_g(lam, target, j_max)

    @pytest.mark.parametrize("lam", [0.01, 0.25, 1.0, F(7, 3), 30.0])
    def test_shortest_recurrence_and_empty_target(self, lam):
        for target, j_max in (({0}, 1), ({1}, 1), ({0, 1}, 1), (set(), 1), (set(), 30)):
            assert solve_stein(lam, target, j_max).g == mpf_object_g(lam, target, j_max)

    def test_sandwich_at_k_far_above_n_200(self):
        for code in STATISTIC_CODES:
            pmf, lam = statistic_pushforward(2**17, 200, code)
            assert tv_sandwich(pmf, lam) == mpf_object_tv_sandwich(pmf, lam), code


class TestNonFiniteRates:
    @pytest.mark.parametrize("lam", [math.inf, math.nan, -math.inf, 0.0, -1.0])
    def test_solver(self, lam):
        with pytest.raises(UserInputError, match="lambda must be positive and finite"):
            solve_stein(lam, {0}, 5)

    @pytest.mark.parametrize("lam", [math.inf, math.nan, F(10**400), 0.0])
    def test_sandwich(self, lam):
        pmf = ExactPmf(1, [(0, 1)])
        with pytest.raises(UserInputError, match="lambda must be positive and finite"):
            tv_sandwich(pmf, lam)
        with pytest.raises(UserInputError, match="lambda must be positive and finite"):
            tv_exact_vs_poisson(pmf, lam)

    def test_nan_width_fails_the_certificate(self, monkeypatch):
        monkeypatch.setattr(stein, "tv_sandwich", lambda pmf, lam: (math.nan, math.nan))
        with pytest.raises(CertificationError, match="TV sandwich too wide"):
            tv_exact_vs_poisson(ExactPmf(1, [(0, 1)]), 0.5)


def _mpf_object_rate(lam):
    if isinstance(lam, Fraction):
        return mp.mpf(lam.numerator) / lam.denominator
    return mp.mpf(lam)


class TestLibmpSetup:
    """The libmp setup rounds lambda, e^-lambda and q_s as mpf objects did."""

    def test_rate_and_its_exponential(self):
        rng = random.Random(2304)
        for i in range(3000):
            if i % 2:
                lam = 10 ** rng.uniform(-2.0, 1.5)
            elif i % 3:
                lam = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            else:  # a numerator wider than the precision is rounded first
                lam = F(rng.getrandbits(rng.randint(100, 320)) | 1, rng.randint(1, 10**6))
            dps = rng.randint(30, 90)
            prec = dps_to_prec(dps)
            with mp.workdps(dps):
                lam_mp = _mpf_object_rate(lam)
                want = lam_mp._mpf_, (mp.e ** (-lam_mp))._mpf_
            lam_v = stein._rate_value(lam, prec)
            assert (lam_v, stein._exp_neg(lam_v, prec)) == want, (lam, dps)

    def test_start_mass(self):
        rng = random.Random(2305)
        with mp.workdps(40):
            prec = mp.mp.prec
            for i in range(3000):
                if i % 3:
                    lam = F(rng.randint(1, 2**17), rng.randint(1, 1001))
                else:
                    lam = 10 ** rng.uniform(-2.0, 3.0)
                s = rng.randint(0, 2**17) if i % 4 else rng.randint(0, 40)
                if i % 5 == 0:  # k wider than the precision, as far as tv --k allows
                    k = rng.getrandbits(rng.randint(137, 520)) | 1
                    lam, s = F(k, rng.randint(3, 1001)), k - rng.randint(1, 1000)
                lam_mp = _mpf_object_rate(lam)
                want = mp.exp(-lam_mp + s * mp.log(lam_mp) - mp.loggamma(s + 1))._mpf_
                lam_v = stein._rate_value(lam, prec)
                assert stein._poisson_mass(lam_v, s, prec) == want, (lam, s)


# -- the integer kernel against libmp -----------------------------------------
#
# A kernel value is (man, exp) with a signed man; from_man_exp makes the
# libmp value of the same number. Operands of add, mul and div carry at
# most prec bits, as every value in solve_stein and tv_sandwich does.

precs = st.integers(2, 300)
exps = st.integers(-3000, 3000)


@st.composite
def operands(draw, prec, spare=0):
    bits = draw(st.integers(1, prec + spare))
    man = draw(st.integers(1 << (bits - 1), (1 << bits) - 1))
    return man * draw(st.sampled_from((1, -1))), draw(exps)


@st.composite
def exact_halves(draw):
    """A mantissa whose dropped bits are exactly one half, and its prec."""
    prec = draw(precs)
    kept = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
    dropped = draw(st.integers(1, 200))
    return (kept << dropped) + (1 << (dropped - 1)), prec


class TestKernel:
    @settings(max_examples=400, deadline=None)
    @given(man=st.integers(-(1 << 900), 1 << 900), exp=exps, prec=precs)
    @example(man=(1 << 60) - 1, exp=0, prec=53)  # rounds up into a carry
    @example(man=0, exp=5, prec=10)
    def test_round(self, man, exp, prec):
        sign, mag = int(man < 0), abs(man)
        want = normalize(sign, mag, exp, mag.bit_length(), prec, "n")
        assert from_man_exp(*stein._round(man, exp, prec)) == want

    @settings(max_examples=300, deadline=None)
    @given(half=exact_halves(), exp=exps, sign=st.sampled_from((1, -1)))
    def test_round_exact_halves(self, half, exp, sign):
        man, prec = half
        want = normalize(int(sign < 0), man, exp, man.bit_length(), prec, "n")
        got = stein._round(sign * man, exp, prec)
        assert from_man_exp(*got) == want
        assert got[0] % 2 == 0 or got[0].bit_length() < prec  # ties go to even

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), prec=precs)
    def test_add(self, data, prec):
        am, ae = data.draw(operands(prec))
        bm, be = data.draw(operands(prec))
        want = mpf_add(from_man_exp(am, ae), from_man_exp(bm, be), prec, "n")
        assert from_man_exp(*stein._add(am, ae, bm, be, prec)) == want

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), prec=precs, gap=st.integers(0, 2000))
    def test_add_far_apart(self, data, prec, gap):
        # b lies prec + 5 + gap bits below a: the guard-and-sticky route,
        # which rounds right while a has up to prec + 5 bits (the sticky
        # decides when a itself is a tie)
        am, ae = data.draw(operands(prec, spare=5))
        bm, _ = data.draw(operands(prec))
        be = ae + am.bit_length() - bm.bit_length() - prec - 5 - gap
        want = mpf_add(from_man_exp(am, ae), from_man_exp(bm, be), prec, "n")
        assert from_man_exp(*stein._add(am, ae, bm, be, prec)) == want
        assert from_man_exp(*stein._add(bm, be, am, ae, prec)) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), prec=precs, zero_exp=exps)
    def test_add_cancels_to_zero(self, data, prec, zero_exp):
        am, ae = data.draw(operands(prec))
        assert stein._add(am, ae, -am, ae, prec)[0] == 0
        assert from_man_exp(*stein._add(am, ae, -am, ae, prec)) == mpf_add(
            from_man_exp(am, ae), from_man_exp(-am, ae), prec, "n"
        )
        # a zero from a cancellation keeps an exponent; adding it is exact
        assert from_man_exp(*stein._add(am, ae, 0, zero_exp, prec)) == from_man_exp(am, ae)
        assert from_man_exp(*stein._add(0, zero_exp, am, ae, prec)) == from_man_exp(am, ae)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), prec=precs, unit=st.booleans())
    def test_mul(self, data, prec, unit):
        # the kernel multiplies exactly in ints and rounds once
        am, ae = data.draw(operands(prec))
        bm, be = (1, data.draw(exps)) if unit else data.draw(operands(prec))
        want = mpf_mul(from_man_exp(am, ae), from_man_exp(bm, be), prec, "n")
        assert from_man_exp(*stein._round(am * bm, ae + be, prec)) == want

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), prec=precs, unit=st.booleans(), exact=st.booleans())
    def test_div(self, data, prec, unit, exact):
        dm, de = (1, data.draw(exps)) if unit else data.draw(operands(prec))
        dm = abs(dm)
        am, ae = data.draw(operands(prec))
        if exact:
            am = am * dm
        want = mpf_div(from_man_exp(am, ae), from_man_exp(dm, de), prec, "n")
        assert from_man_exp(*stein._div(am, ae - de, dm, prec)) == want

    @settings(max_examples=200, deadline=None)
    @given(man=st.integers(-(1 << 400), 1 << 400), exp=st.integers(-1500, 600))
    @example(man=(1 << 54) - 1, exp=-1100)  # subnormal after a carry
    @example(man=3, exp=-1076)
    def test_doubles(self, man, exp):
        # solve_stein's floats: to 53 bits, then ldexp, as libmp's to_float
        got = math.ldexp(*stein._round(man, exp, 53))
        assert got == to_float(from_man_exp(man, exp), rnd="n")
