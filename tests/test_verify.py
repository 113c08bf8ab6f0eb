"""Cross-module identity suites and their fault injection."""

from collections import Counter

import pytest

from shufflestats import pair, verify
from shufflestats.errors import UserInputError
from shufflestats.measures import ExactPmf
from shufflestats.sampler import insertion_normalization
from shufflestats.verify import GRID_LIMIT, SuiteResult, run_all

EXPECTED_SUITES = {
    "eulerian",
    "cyclic-counts",
    "pmf-oracle",
    "moments",
    "transfer",
    "generating-function",
    "pair",
    "insertion",
}


def test_default_run_passes():
    results = run_all(oracle_max=5, k_max=5, n_max=5)
    assert {r.name for r in results} == EXPECTED_SUITES
    assert all(isinstance(r, SuiteResult) for r in results)
    assert all(r.passed for r in results)
    assert all(r.checks > 0 for r in results)


def test_enumeration_suites_share_one_pass_per_n(monkeypatch):
    # eulerian, cyclic-counts, pmf-oracle and moments read one (d, c)
    # histogram of each S_n; pair and insertion enumerate on their own.
    calls = Counter()
    real = verify.permutations

    def counted(symbols):
        calls[len(symbols)] += 1
        return real(symbols)

    monkeypatch.setattr(verify, "permutations", counted)
    monkeypatch.setattr(verify, "_suite_pair", lambda oracle_max: 1)
    monkeypatch.setattr(verify, "_suite_insertion", lambda: 1)
    results = run_all(oracle_max=6, k_max=3, n_max=3)
    assert all(r.passed for r in results)
    assert sorted(calls) == [1, 2, 3, 4, 5, 6]
    assert max(calls.values()) == 1


def test_pair_suite_builds_each_rotation_law_once(monkeypatch):
    # One drift per permutation of S_3..S_6 serves k = 1, 2 and 3, and
    # drift builds the permutation's rotation law: 6 + 24 + 120 + 720.
    calls = Counter()
    real = pair.rotation_conditional_law

    def counted(p):
        calls[len(p)] += 1
        return real(p)

    monkeypatch.setattr(pair, "rotation_conditional_law", counted)
    results = run_all()
    assert all(r.passed for r in results)
    assert calls == {3: 6, 4: 24, 5: 120, 6: 720}


def test_a_wrong_wrap_trips_exactly_the_pair_suite(monkeypatch):
    flipped = (2, 1, 3)
    real = pair._wraps_down
    monkeypatch.setattr(pair, "_wraps_down", lambda p: real(p) != (p == flipped))
    by_name = {r.name: r for r in run_all()}
    assert not by_name["pair"].passed
    assert by_name["pair"].detail.startswith("rotation law mismatch for 2 1 3")
    assert all(r.passed for name, r in by_name.items() if name != "pair")


def test_a_wrong_law_and_a_wrong_moment_trip_their_suites(monkeypatch):
    # d_pmf_C(3, 4) with mass 1/(2 den) moved from its lowest value to
    # its highest, and use1_mean(2, 4) off by one; nothing else changes.
    real_law, real_use1 = verify.d_pmf_C, verify.use1_mean

    def tilted(k, n):
        law = real_law(k, n)
        if (k, n) != (3, 4):
            return law
        lo, hi = law.support[0], law.support[-1]
        atoms = [(v, 2 * a - (v == lo) + (v == hi)) for v, a in zip(law.support, law.nums)]
        return ExactPmf(2 * law.den, atoms)

    monkeypatch.setattr(verify, "d_pmf_C", tilted)
    monkeypatch.setattr(verify, "use1_mean", lambda k, n: real_use1(k, n) + ((k, n) == (2, 4)))
    by_name = {r.name: r for r in run_all(oracle_max=4, k_max=3, n_max=3)}
    failed = {name: r.detail for name, r in by_name.items() if not r.passed}
    assert failed == {
        "pmf-oracle": "d_pmf_C(k=3, n=4) at value 0: closed form 19/216, enumeration 5/54",
        "moments": "use1(k=2, n=4): closed form 5/4, enumeration 1/4",
    }


def test_insertion_normalization_covers_every_state_at_50_by_50():
    # sum over n, k <= 50 of min(n, k) states
    assert insertion_normalization() == 42_925


def test_fault_injection_trips_exactly_the_transfer_suite():
    results = run_all(oracle_max=4, k_max=4, n_max=4, inject_fault="transfer")
    by_name = {r.name: r for r in results}
    assert not by_name["transfer"].passed
    assert "transfer fails at k=" in by_name["transfer"].detail
    assert "n=" in by_name["transfer"].detail
    assert "r=" in by_name["transfer"].detail
    others = [r for r in results if r.name != "transfer"]
    assert all(r.passed for r in others)


def test_oracle_cap_is_validated():
    with pytest.raises(UserInputError):
        run_all(oracle_max=0)
    with pytest.raises(UserInputError):
        run_all(oracle_max=10)


def test_bad_fault_mode_is_rejected():
    with pytest.raises(UserInputError):
        run_all(oracle_max=3, inject_fault="gibberish")


def test_grid_arguments_are_validated():
    with pytest.raises(UserInputError):
        run_all(oracle_max=3, k_max=0)
    with pytest.raises(UserInputError):
        run_all(oracle_max=3, n_max=1)


def test_grid_product_is_capped():
    assert 12 * 8 <= GRID_LIMIT  # the default grid
    for k_max, n_max in ((GRID_LIMIT // 2, 2), (1, GRID_LIMIT)):
        assert all(r.passed for r in run_all(oracle_max=2, k_max=k_max, n_max=n_max))
    for k_max, n_max in ((GRID_LIMIT // 2 + 1, 2), (1, GRID_LIMIT + 1), (100, 100)):
        with pytest.raises(UserInputError, match=f"at most {GRID_LIMIT}"):
            run_all(oracle_max=2, k_max=k_max, n_max=n_max)
