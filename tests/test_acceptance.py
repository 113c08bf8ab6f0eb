"""Acceptance gate: twelve certified behaviors, one test per criterion.

Run with -v to get one pass/fail line per criterion. Each test carries
its scope and tolerances inline; the heavy grids share the cached
enumeration oracle from conftest.
"""

import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import oracle_descents, oracle_moment, oracle_pmf, pmf_as_dict, stat_pairs
from shufflestats import cli
from shufflestats.measures import c_pmf_C, d_pmf_C, d_pmf_R
from shufflestats.moments import (
    asymptotic_mean_c,
    asymptotic_variance_c,
    moments_c_C,
    moments_d_C,
    use1_mean,
)
from shufflestats.pair import central_eulerian_ratio, newton_check, nogood_diagnostic
from shufflestats.sampler import (
    SamplerConfig,
    decision_tree_distribution,
    insertion_normalization,
    riffle_summary,
    sample_statistic,
)
from shufflestats.stein import (
    STATISTIC_CODES,
    certification_sweep,
    certified_bound,
    solve_stein,
    sweep_k_values,
    tv_report,
)

F = Fraction


def test_c01_exact_pmfs_match_enumeration_up_to_n8_k12():
    started = time.monotonic()
    for n in range(1, 9):
        for k in range(1, 13):
            assert pmf_as_dict(d_pmf_R(k, n)) == oracle_pmf("R", k, n, "d")
            if n >= 2:
                assert pmf_as_dict(c_pmf_C(k, n)) == oracle_pmf("C", k, n, "c")
                assert pmf_as_dict(d_pmf_C(k, n)) == oracle_pmf("C", k, n, "d")
    assert time.monotonic() - started < 60


def test_c02_exact_moments_and_derived_identities_match_enumeration():
    for n in range(2, 9):
        for k in range(1, 13):
            e_c1 = oracle_moment("C", k, n, "c", 1)
            e_c2 = oracle_moment("C", k, n, "c", 2)
            e_d1 = oracle_moment("C", k, n, "d", 1)
            e_d2 = oracle_moment("C", k, n, "d", 2)
            c_rep, d_rep = moments_c_C(k, n), moments_d_C(k, n)
            assert c_rep.mean_exact == e_c1
            assert c_rep.second_exact == e_c2
            assert d_rep.mean_exact == e_d1
            assert d_rep.second_exact == e_d2
            # derived identities, both sides exact
            assert e_d1 == F(n - 1, n) * e_c1
            assert e_d2 == (1 - F(2, n)) * e_c2 + e_c1 / n
            assert use1_mean(k, n) == (e_c2 - e_c1) / n


def test_c03_transfer_identity_and_statistic_proximity():
    for n in range(1, 9):
        for k in range(1, 13):
            dp = d_pmf_R(k, n)
            cp = c_pmf_C(k, n + 1)
            for r in range(0, n + 1):
                assert dp.prob(r) == cp.prob(r + 1)
            if n >= 2:
                gap = d_pmf_C(k, n).l1_distance(c_pmf_C(k, n))
                assert gap <= F(2 * k, n)


def test_c04_poisson_bounds_certify_across_the_sweep():
    started = time.monotonic()
    grid = cli._build_parser().parse_args(["tv", "--grid"])  # the CLI's default grid
    reports = certification_sweep(grid.n_list, grid.k_points, STATISTIC_CODES)
    want_rows = 3 * sum(
        len(sweep_k_values(n, 20)) for n in (20, 50, 100, 200, 400)
    )
    assert len(reports) == want_rows
    assert all(r.tv_exact <= r.bound for r in reports)
    pinned = tv_report(5, 200, "Cd")
    assert pinned.bound == pytest.approx(6.25e-4, rel=1e-9)
    assert pinned.tv_exact < pinned.bound
    assert float(certified_bound(5, 200, "Cd")) == pytest.approx(6.25e-4, rel=1e-9)
    assert time.monotonic() - started < 300


def test_c05_stein_solutions_certify_on_randomized_cases():
    rng = random.Random(12345)
    for _ in range(1000):
        lam = 10 ** rng.uniform(-2.0, 1.5)
        j_max = rng.randint(5, 40)
        target = {j for j in range(j_max + 1) if rng.random() < 0.35}
        sol = solve_stein(lam, target, j_max)
        assert sol.sup_g() <= 1.0
        assert sol.sup_delta_g() <= 1.0
        assert sol.max_residual() < 1e-12


def test_c06_linear_mean_regime_error_decays_like_one_over_n():
    m, s = asymptotic_mean_c(1.0)
    assert float(m) == pytest.approx(0.4180233, abs=5e-8)
    scaled_gaps = []
    for n in (50, 100, 200, 400, 800):
        exact = float(moments_c_C(n, n).mean_exact)
        scaled_gaps.append(n * abs(exact - (n * float(m) + float(s))))
    assert max(scaled_gaps) <= 2 * scaled_gaps[0]


def test_c07_linear_variance_regime_stays_bounded():
    v1 = float(asymptotic_variance_c(1.0))
    gap_at_50 = abs(float(moments_c_C(50, 50).variance_exact) - 50 * v1)
    gap_at_800 = abs(float(moments_c_C(800, 800).variance_exact) - 800 * v1)
    assert gap_at_800 <= gap_at_50 + 1
    assert abs(float(asymptotic_variance_c(1e6)) - 1 / 12) < 1e-6


def test_c08_two_sided_eulerian_inequality_up_to_n60():
    record = newton_check(60)
    assert record.n_max == 60
    assert record.cases > 0
    want = tuple((n, (n - 1) // 2) for n in range(3, 61, 2))
    assert record.equality_points == want


def test_c09_remainder_diagnostic_stays_positive_and_dominated():
    rows = nogood_diagnostic(4, 14)
    values = [row.value_float for row in rows]
    assert all(v > 0 for v in values)
    assert all(r.value_float >= r.lower_bound_float - 1e-12 for r in rows)
    assert min(values) >= max(values) / 2
    ratio = float(central_eulerian_ratio(60))
    target = math.sqrt(6 / (60 * math.pi))
    assert abs(ratio - target) / target < 0.05


def test_c10_decision_tree_expands_to_the_shuffle_measure():
    for n in range(1, 6):
        for k in range(1, 5):
            tree = decision_tree_distribution(k, n)
            assert sum(tree.values()) == 1
            for word in itertools.permutations(range(1, n + 1)):
                d = oracle_descents(word)
                want = F(math.comb(n + k - d - 1, n), k**n)
                assert tree.get(word, F(0)) == want
    assert insertion_normalization() > 0


def test_c11_sampler_and_physical_riffle_pass_goodness_of_fit():
    started = time.monotonic()
    cfg = SamplerConfig(k=4, n=6, count=1_000_000, seed=20260816, streams=8)
    summary = sample_statistic("R", "d", cfg)
    assert summary.p_value > 0.001
    assert summary.max_bin_z < 4
    first = time.monotonic()
    assert first - started < 60

    riffled = riffle_summary(6, 2, count=100_000, seed=7)
    assert riffled.p_value > 0.001
    assert riffled.max_bin_z < 4
    assert time.monotonic() - first < 60


def test_c12_cyclic_generating_function_identity_to_degree_12():
    # coefficient of t^j in n (1-t)^n sum_{m>=1} m^(n-1) t^m, degree <= 12,
    # against the enumerated distribution of the cyclic statistic
    for n in range(2, 9):
        counts = Counter(c for _, c in stat_pairs(n))
        for j in range(0, 13):
            rhs = n * sum(
                (-1) ** i * math.comb(n, i) * m ** (n - 1)
                for i in range(0, min(n, j) + 1)
                for m in (j - i,)
                if m >= 1
            )
            lhs = counts.get(j, 0)
            assert lhs == rhs, (n, j)
