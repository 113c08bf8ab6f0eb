"""The (measure, statistic) law table, row by row, against the oracle."""

from fractions import Fraction

import pytest

from conftest import fraction_pmf, oracle_law
from shufflestats.errors import UserInputError
from shufflestats.measures import STATISTIC_LAWS
from shufflestats.sampler import exact_statistic_pmf
from shufflestats.stein import STATISTIC_CODES, certified_bound, statistic_pushforward

F = Fraction
GRID = [(k, n) for n in range(2, 7) for k in range(1, 6)]


@pytest.mark.parametrize("key", list(STATISTIC_LAWS), ids="/".join)
def test_row(key):
    measure, statistic = key
    law = STATISTIC_LAWS[key]
    for k, n in GRID:
        want = oracle_law(measure, statistic, k, n)
        got = law.pmf(k, n)
        assert dict(got.items()) == want, (k, n)
        assert exact_statistic_pmf(measure, k, n, statistic) == got
        if law.moments is not None:
            assert law.moments(k, n).mean_exact == got.mean(), (k, n)
        if law.poisson is not None:
            pushed, lam = statistic_pushforward(k, n, law.poisson)
            want_pushed = fraction_pmf((k - law.offset - s, m) for s, m in want.items())
            assert pushed == want_pushed, (k, n)
            assert lam == F(k, n + law.shift)


def test_table_covers_the_five_pairs():
    assert set(STATISTIC_LAWS) == {
        ("R", "d"), ("C", "d"), ("C", "c"), ("R", "parsimony"), ("C", "parsimony"),
    }
    assert STATISTIC_CODES == ("Cd", "Cc", "R")


@pytest.mark.parametrize("k, n", GRID)
def test_bounds_match_their_closed_forms(k, n):
    tail = k * (n + 1) * F(k - 1, k) ** n
    assert certified_bound(k, n, "Cd") == F(k, n) ** 2 + tail
    assert certified_bound(k, n, "Cc") == F(k, n) ** 2 + F(2 * k, n) + tail
    assert certified_bound(k, n, "R") == (
        F(k, n + 1) ** 2 + F(2 * k, n + 1) + k * (n + 2) * F(k - 1, k) ** (n + 1)
    )


@pytest.mark.parametrize(
    "measure, statistic", [("R", "c"), ("Q", "d"), ("C", "x")]
)
def test_pairs_outside_the_table_are_rejected(measure, statistic):
    with pytest.raises(UserInputError):
        exact_statistic_pmf(measure, 3, 4, statistic)


def test_cyclic_under_shuffle_measure_points_to_C():
    with pytest.raises(UserInputError, match="measure 'C'"):
        exact_statistic_pmf("R", 3, 4, "c")
