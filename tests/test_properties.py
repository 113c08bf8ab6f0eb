"""Property tests: integer-numerator laws, power sums and the TV sum.

Every law is held as int numerators over one denominator; these tests
hold that representation to the enumeration oracle in conftest and to
the law built from reduced Fraction masses, and hold the two k >> n shortcuts (power
sums by forward differences, the TV sum over the pmf's range only) to the
direct computations they replace. The reduction to lowest terms, which
goes through the denominator's base, and the CLI's text of it are held
to Fraction's gcd.
"""

import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import fraction_pmf, oracle_law
from shufflestats import cli, moments
from shufflestats.errors import UserInputError
from shufflestats.measures import STATISTIC_LAWS, ExactPmf, c_pmf_uniform, d_pmf_uniform
from shufflestats.moments import power_sum
from shufflestats.stein import (
    STATISTIC_CODES,
    statistic_pushforward,
    sweep_k_values,
    tv_exact_vs_poisson,
)

F = Fraction

law_keys = st.sampled_from(sorted(STATISTIC_LAWS))


@settings(max_examples=150, deadline=None)
@given(key=law_keys, k=st.integers(1, 12), n=st.integers(2, 7))
def test_law_rows_match_the_oracle(key, k, n):
    measure, statistic = key
    pmf = STATISTIC_LAWS[key].pmf(k, n)
    want = oracle_law(measure, statistic, k, n)
    assert dict(pmf.items()) == want
    assert sum(pmf.nums) == pmf.den
    assert all(a > 0 for a in pmf.nums)
    mean = sum((v * m for v, m in want.items()), F(0))
    assert pmf.mean() == mean
    assert pmf.variance() == sum((v * v * m for v, m in want.items()), F(0)) - mean**2


@settings(max_examples=100, deadline=None)
@given(key=law_keys, k=st.integers(1, 40), n=st.integers(2, 30), scale=st.integers(2, 50))
def test_int_and_fraction_built_laws_are_one_law(key, k, n, scale):
    pmf = STATISTIC_LAWS[key].pmf(k, n)
    from_fractions = fraction_pmf(pmf.items())
    scaled = ExactPmf(
        pmf.den * scale, ((v, a * scale) for v, a in zip(pmf.support, pmf.nums))
    )
    for other in (from_fractions, scaled):
        assert other == pmf
        assert hash(other.items()) == hash(pmf.items())
        assert list(other.reduced()) == list(pmf.reduced())


atoms = st.dictionaries(st.integers(0, 30), st.integers(0, 10**6), min_size=1).filter(
    lambda d: sum(d.values()) > 0
)


@settings(max_examples=200, deadline=None)
@given(nums=atoms, scale=st.integers(1, 1000))
def test_int_built_law_equals_the_fraction_built_one(nums, scale):
    den = sum(nums.values())
    by_ints = ExactPmf(den * scale, ((v, a * scale) for v, a in nums.items()))
    by_fractions = fraction_pmf((v, F(a, den)) for v, a in nums.items())
    assert by_ints == by_fractions
    assert hash(by_ints.items()) == hash(by_fractions.items())
    assert by_ints.items() == by_fractions.items()
    assert all(a > 0 for a in by_ints.nums)
    assert sum(by_ints.nums) == by_ints.den
    assert by_ints.mean() == sum((v * m for v, m in by_fractions.items()), F(0))
    assert by_ints.variance() == by_fractions.variance()
    moved = by_ints.pushforward(lambda v: v // 3)
    assert moved == by_fractions.pushforward(lambda v: v // 3)


@settings(max_examples=100, deadline=None)
@given(a=atoms, b=atoms)
def test_l1_distance_and_inequality(a, b):
    pa = ExactPmf(sum(a.values()), a.items())
    pb = ExactPmf(sum(b.values()), b.items())
    want = sum(abs(pa.prob(v) - pb.prob(v)) for v in set(pa.support) | set(pb.support))
    assert pa.l1_distance(pb) == want
    assert (pa == pb) == (want == 0)


def test_constructor_checks_and_their_messages():
    with pytest.raises(UserInputError, match="masses sum to 1/2, not 1"):
        ExactPmf(4, [(0, 2)])
    with pytest.raises(UserInputError, match="negative mass at 1"):
        ExactPmf(1, [(0, 2), (1, -1)])
    with pytest.raises(UserInputError, match="negative support value -1"):
        ExactPmf(1, [(-1, 1)])
    with pytest.raises(UserInputError, match="denominator 0 is not positive"):
        ExactPmf(0, [])


# -- output reduction ---------------------------------------------------------


def assert_views_reduce_like_fractions(pmf):
    """items(), reduced() and the CLI's text of it against Fraction(a, den), the gcd route."""
    masses = [F(a, pmf.den) for a in pmf.nums]
    assert pmf.items() == tuple(zip(pmf.support, masses))
    assert list(pmf.reduced()) == [
        (v, m.numerator, m.denominator) for v, m in zip(pmf.support, masses)
    ]
    atoms = list(cli._reduced_atoms(pmf))
    assert [text for *_, text in atoms] == [str(m.denominator) for m in masses]
    assert cli._pmf_json(atoms) == {str(v): str(m) for v, m in zip(pmf.support, masses)}


piles = st.one_of(
    st.just(1),
    st.integers(2, 60),
    st.builds(pow, st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 5)),
    st.integers(0, 40).map(lambda r: 2**r),
)


@pytest.mark.parametrize(
    "pmf",
    [
        STATISTIC_LAWS[("R", "d")].pmf(1, 9),  # base 1
        STATISTIC_LAWS[("C", "c")].pmf(1, 9),
        STATISTIC_LAWS[("R", "d")].pmf(2**37, 30),  # a base over 30 bits
        STATISTIC_LAWS[("C", "c")].pmf(3**25, 30),
        STATISTIC_LAWS[("C", "d")].pmf(2**37, 30),  # base n * k
        STATISTIC_LAWS[("C", "d")].pmf(12, 30),
        d_pmf_uniform(30),  # no base
        c_pmf_uniform(30),
        # numerators holding more of the base than its 60-bit power does
        ExactPmf(2**300, [(0, 2**250), (1, 2**299), (2, 2**299 - 2**250)], 2),
        ExactPmf(6**200, [(0, 5 * 6**130), (1, 6**200 - 5 * 6**130)], 6),
        ExactPmf(10**80, [(0, 10**79), (1, 9 * 10**79)]),
    ],
    ids=lambda pmf: f"den{pmf.den.bit_length()}b-base{pmf.base}",
)
def test_views_reduce_at_the_edges_of_the_base(pmf):
    assert_views_reduce_like_fractions(pmf)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
def test_a_denominator_past_the_digit_limit_raises_like_str():
    limit = sys.get_int_max_str_digits()
    fits = 10 ** (limit - 1)
    atoms = list(cli._reduced_atoms(ExactPmf(fits, [(0, 1), (1, fits - 1)], 10)))
    assert atoms[0][3] == str(fits)
    den = 10**limit
    with pytest.raises(ValueError) as want:
        str(den)
    with pytest.raises(ValueError) as got:
        list(cli._reduced_atoms(ExactPmf(den, [(0, 1), (1, den - 1)], 10)))
    assert str(got.value) == str(want.value)


@settings(max_examples=200, deadline=None)
@given(key=law_keys, k=piles, n=st.integers(2, 40))
def test_law_views_reduce_through_the_base(key, k, n):
    pmf = STATISTIC_LAWS[key].pmf(k, n)
    assert pmf.base in (k, n * k)
    assert_views_reduce_like_fractions(pmf)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 40), m=st.integers(1, 30), e=st.integers(1, 3))
def test_d_pmf_C_views_when_k_shares_primes_with_n(n, m, e):
    pmf = STATISTIC_LAWS[("C", "d")].pmf(m * n**e, n)
    assert pmf.base == m * n ** (e + 1)
    assert_views_reduce_like_fractions(pmf)


@settings(max_examples=100, deadline=None)
@given(code=st.sampled_from(STATISTIC_CODES), k=piles, n=st.integers(2, 30))
def test_stein_pushforward_views_reduce_through_the_base(code, k, n):
    pmf, _ = statistic_pushforward(k, n, code)
    assert pmf.base is not None
    assert_views_reduce_like_fractions(pmf)


def _smallest_prime(b):
    return next(p for p in range(2, b + 1) if b % p == 0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), base=st.integers(2, 60), power=st.integers(1, 8))
def test_views_cap_a_numerator_richer_in_a_base_prime_than_den(data, base, power):
    den = base**power
    p = _smallest_prime(base)
    top = 0
    while p ** (top + 1) < den:
        top += 1
    a = p ** data.draw(st.integers(0, top)) * data.draw(st.integers(1, 6))
    assume(a < den)
    pmf = ExactPmf(den, [(0, a), (1, den - a)], base)
    assert_views_reduce_like_fractions(pmf)


def test_views_cap_at_the_power_den_holds():
    # 2^7 holds more 2s than 6^3 = 216 does: 128/216 = 16/27.
    pmf = ExactPmf(216, [(0, 128), (1, 88)], 6)
    assert list(pmf.reduced()) == [(0, 16, 27), (1, 11, 27)]
    assert_views_reduce_like_fractions(pmf)


@settings(max_examples=100, deadline=None)
@given(nums=atoms, scale=st.integers(1, 1000))
def test_views_without_a_base_fall_back_to_gcd(nums, scale):
    den = sum(nums.values())
    by_fractions = fraction_pmf((v, F(a * scale, den * scale)) for v, a in nums.items())
    by_ints = ExactPmf(den * scale, ((v, a * scale) for v, a in nums.items()))
    for pmf in (by_fractions, by_ints):
        assert pmf.base is None
        assert_views_reduce_like_fractions(pmf)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(4, 2000))
def test_sweep_k_values_matches_the_rounding_loop(data, n):
    k_top = n // 4
    points = data.draw(st.integers(1, 2 * k_top))
    step = max(1, points - 1)
    raw = {1 + round(i * (k_top - 1) / step) for i in range(points)}
    assert sweep_k_values(n, points) == sorted(min(v, k_top) for v in raw)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 40])
def test_uniform_law_views_fall_back_to_gcd(n):
    laws = [d_pmf_uniform(n)] + ([c_pmf_uniform(n)] if n >= 2 else [])
    for pmf in laws:
        assert pmf.base is None
        assert_views_reduce_like_fractions(pmf)


# -- power sums ------------------------------------------------------------


def _direct(p, a):
    return sum(r**p for r in range(1, a))


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 40), a=st.integers(0, 6000))
def test_power_sum_matches_direct_summation(p, a):
    assert power_sum(p, a) == _direct(p, a)


def _switch(p):
    """The least a at which power_sum(p, a) takes forward differences."""
    return moments._DIFFERENCES_PER_P * p + 1


@pytest.mark.parametrize("a", [0, 1, 2])
def test_power_sum_on_the_smallest_ranges(a):
    for p in range(6):
        assert power_sum(p, a) == sum(r**p for r in range(a))


@settings(max_examples=40, deadline=None)
@given(p=st.integers(301, 700), a=st.integers(0, 800))
def test_power_sum_matches_direct_summation_at_large_p(p, a):
    assert power_sum(p, a) == _direct(p, a)
    # Past the switch, modulo the prime 2^127 - 1, to keep the reference cheap.
    a, m = _switch(p) + a, 2**127 - 1
    assert power_sum(p, a) % m == sum(pow(r, p, m) for r in range(a)) % m


@pytest.mark.parametrize("p", [1, 9, 31, 60])
def test_power_sum_pair_on_both_sides_of_the_switch(p):
    for a in (_switch(p + 1) - 1, _switch(p + 1), 2):
        assert moments._power_sum_pair(p, a) == (_direct(p, a), _direct(p + 1, a))


@pytest.mark.parametrize("p", [1, 2, 9, 31, 32, 60])
def test_power_sum_on_both_sides_of_the_switch(p, monkeypatch):
    tables = []
    powers = moments._powers

    def counted(q, b):
        tables.append((q, b))
        return powers(q, b)

    monkeypatch.setattr(moments, "_powers", counted)
    a = _switch(p)
    assert power_sum(p, a - 1) == _direct(p, a - 1)
    assert tables == [(p, a - 1)]
    assert power_sum(p, a) == _direct(p, a)
    assert tables == [(p, a - 1), (p, p + 1)]


def test_power_sum_reads_p_plus_one_powers_at_large_a(monkeypatch):
    # p = 399, a = 10^6 is the power sum of moments --k 1000000 --n 400.
    p, a = 399, 10**6
    powers = moments._powers

    def refuse_long_tables(q, b):
        if b > p + 1:
            raise AssertionError(f"direct summation of {b} powers")
        return powers(q, b)

    monkeypatch.setattr(moments, "_powers", refuse_long_tables)
    assert power_sum(p, a) % 10**9 == sum(pow(r, p, 10**9) for r in range(a)) % 10**9


# -- TV sum ------------------------------------------------------------------


def reference_tv_sandwich(pmf, lam):
    """The sum as it was before it ran over the pmf's range only: every j
    from 0 to the top of the support, then the Poisson tail summed upward
    with its geometric remainder in the upper end."""
    with mp.workdps(40):
        lam_mp = mp.mpf(lam.numerator) / lam.denominator
        top = pmf.support[-1]
        q = mp.e ** (-lam_mp)
        acc = mp.mpf(0)
        for j in range(top + 1):
            p = pmf.prob(j)
            acc += abs(mp.mpf(p.numerator) / p.denominator - q)
            q = q * lam_mp / (j + 1)
        j = top + 1
        floor = mp.mpf(10) ** -45
        while q > floor or j <= float(lam):
            acc += q
            j += 1
            q = q * lam_mp / j
        remainder = q / (1 - lam_mp / (j + 1))
        lo = acc / 2
        return float(lo), float(lo + remainder / 2 + mp.mpf(10) ** -28)


def _agrees_with_reference(code, k, n):
    pmf, lam = statistic_pushforward(k, n, code)
    tv = tv_exact_vs_poisson(pmf, lam)
    ref_lo, ref_hi = reference_tv_sandwich(pmf, lam)
    # TV lies in the full walk's enclosure to within one part in 10^15.
    assert ref_lo - 1e-15 <= tv <= ref_hi + 1e-15


@settings(max_examples=120, deadline=None)
@given(code=st.sampled_from(STATISTIC_CODES), k=st.integers(1, 120), n=st.integers(2, 40))
def test_tv_sum_matches_the_full_walk(code, k, n):
    _agrees_with_reference(code, k, n)


@pytest.mark.parametrize("code", STATISTIC_CODES)
@pytest.mark.parametrize("k, n", [(2000, 3), (5000, 8), (9973, 12)])
def test_tv_sum_matches_the_full_walk_for_k_far_above_n(code, k, n):
    _agrees_with_reference(code, k, n)
