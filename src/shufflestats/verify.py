"""Self-contained verification suites behind the `verify` subcommand.

Every suite recomputes a family of identities from scratch, by direct
enumeration over S_n or by exact rational algebra, and compares the
result against the package's closed forms. A failing suite carries a
concrete counterexample in its detail string instead of raising, so one
run reports the status of every suite.

The transfer suite accepts a test-only fault flag that flips one
binomial coefficient in its local recomputation. Injecting the fault
must make the suite fail with a named (k, n, r) counterexample; this
guards the harness itself against vacuous green runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .errors import CertificationError, UserInputError
from .eulerian import cyclic_descent_counts, eulerian_value
from .measures import (
    MeasureSpec,
    c_pmf_C,
    c_prob,
    d_pmf_C,
    d_pmf_R,
    r_prob,
    transfer_R_to_C,
)
from .moments import (
    mean_c_exact,
    mean_d_C,
    moments_d_R,
    second_moment_c_exact,
    second_moment_d_C,
    use1_mean,
)
from .pair import PairLaw, drift, g_remainder, rotation_conditional_law
from .permutations import (
    Permutation,
    cyclic_descent_count,
    descent_count,
    enumerate_sn,
    insert_symbol,
)
from .sampler import decision_tree_distribution, insertion_normalization

FAULT_MODES = ("transfer",)
ORACLE_MAX_LIMIT = 9
DEFAULT_ORACLE_MAX = 7


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    checks: int
    detail: str = ""


def _joint_counts(n: int) -> Counter:
    """Count permutations of S_n by their (descent, cyclic descent) pair."""
    out: Counter = Counter()
    for p in enumerate_sn(n):
        out[(descent_count(p), cyclic_descent_count(p))] += 1
    return out


def _suite_eulerian(oracle_max: int) -> int:
    checks = 0
    for n in range(1, oracle_max + 1):
        hist = Counter(descent_count(p) for p in enumerate_sn(n))
        for i in range(1, n + 1):
            if eulerian_value(n, i) != hist.get(i - 1, 0):
                raise CertificationError(
                    f"triangle value ({n},{i}) = {eulerian_value(n, i)} but "
                    f"{hist.get(i - 1, 0)} permutations have {i - 1} descents"
                )
            if eulerian_value(n, i) != eulerian_value(n, n + 1 - i):
                raise CertificationError(f"row {n} not symmetric at column {i}")
            checks += 2
        if sum(hist.values()) != factorial(n):
            raise CertificationError(f"row {n} enumeration missed permutations")
        checks += 1
    return checks


def _suite_cyclic_counts(oracle_max: int) -> int:
    checks = 0
    for n in range(2, oracle_max + 1):
        hist = Counter(cyclic_descent_count(p) for p in enumerate_sn(n))
        counts = cyclic_descent_counts(n)
        for i in range(1, n + 1):
            if counts[i - 1] != hist.get(i, 0):
                raise CertificationError(
                    f"cyclic count at (n={n}, i={i}): formula {counts[i - 1]}, "
                    f"enumeration {hist.get(i, 0)}"
                )
            checks += 1
        if sum(counts) != factorial(n):
            raise CertificationError(f"cyclic counts at n={n} do not total n!")
        checks += 1
    return checks


def _r_weight(k: int, n: int, d: int) -> Fraction:
    """Definitional mass of any single permutation with d descents."""
    return Fraction(comb(n + k - d - 1, n), k**n)


def _c_weight(k: int, n: int, c: int) -> Fraction:
    """Definitional mass of any single permutation with cyclic count c."""
    return Fraction(comb(n + k - c - 1, n - 1), n * k ** (n - 1))


def _suite_pmf_oracle(oracle_max: int, k_max: int) -> int:
    checks = 0
    for k in range(1, k_max + 1):
        if d_pmf_R(k, 1).items() != ((0, Fraction(1)),):
            raise CertificationError(f"d pmf at (k={k}, n=1) is not a point mass at 0")
        checks += 1
    for n in range(2, oracle_max + 1):
        joint = _joint_counts(n)
        for k in range(1, k_max + 1):
            oracle_d_r: dict[int, Fraction] = {}
            oracle_c_c: dict[int, Fraction] = {}
            oracle_d_c: dict[int, Fraction] = {}
            for (d, c), mult in joint.items():
                oracle_d_r[d] = oracle_d_r.get(d, Fraction(0)) + mult * _r_weight(k, n, d)
                oracle_c_c[c] = oracle_c_c.get(c, Fraction(0)) + mult * _c_weight(k, n, c)
                oracle_d_c[d] = oracle_d_c.get(d, Fraction(0)) + mult * _c_weight(k, n, c)
            for name, closed, oracle in (
                ("d_pmf_R", d_pmf_R(k, n), oracle_d_r),
                ("c_pmf_C", c_pmf_C(k, n), oracle_c_c),
                ("d_pmf_C", d_pmf_C(k, n), oracle_d_c),
            ):
                support = set(dict(closed.items())) | set(oracle)
                for value in sorted(support):
                    if closed.prob(value) != oracle.get(value, Fraction(0)):
                        raise CertificationError(
                            f"{name}(k={k}, n={n}) at value {value}: closed form "
                            f"{closed.prob(value)}, enumeration {oracle.get(value, Fraction(0))}"
                        )
                    checks += 1
    return checks


def _suite_moments(oracle_max: int, k_max: int) -> int:
    checks = 0
    for n in range(2, oracle_max + 1):
        joint = _joint_counts(n)
        for k in range(1, k_max + 1):
            e_c = e_c2 = e_d = e_d2 = e_use1 = Fraction(0)
            e_d_r = e_d2_r = Fraction(0)
            for (d, c), mult in joint.items():
                w_c = mult * _c_weight(k, n, c)
                e_c += w_c * c
                e_c2 += w_c * c * c
                e_d += w_c * d
                e_d2 += w_c * d * d
                if c == d + 1:
                    e_use1 += w_c * d
                w_r = mult * _r_weight(k, n, d)
                e_d_r += w_r * d
                e_d2_r += w_r * d * d
            pairs = (
                ("mean_c", mean_c_exact(k, n), e_c),
                ("second_c", second_moment_c_exact(k, n), e_c2),
                ("mean_d_C", mean_d_C(k, n), e_d),
                ("second_d_C", second_moment_d_C(k, n), e_d2),
                ("use1", use1_mean(k, n), e_use1),
                ("mean_d_R", moments_d_R(k, n).mean_exact, e_d_r),
                ("second_d_R", moments_d_R(k, n).second_exact, e_d2_r),
            )
            for name, closed, oracle in pairs:
                if closed != oracle:
                    raise CertificationError(
                        f"{name}(k={k}, n={n}): closed form {closed}, enumeration {oracle}"
                    )
                checks += 1
    return checks


def _suite_transfer(n_max: int, k_max: int, inject_fault: str | None) -> int:
    checks = 0
    flipped = inject_fault == "transfer"
    for n in range(1, n_max + 1):
        for k in range(1, k_max + 1):
            c_side = c_pmf_C(k, n + 1)
            for r in range(min(n, k)):
                lower = n - 1 if flipped else n
                lhs = Fraction(
                    eulerian_value(n, r + 1) * comb(n + k - r - 1, lower), k**n
                )
                rhs = c_side.prob(r + 1)
                if lhs != rhs:
                    raise CertificationError(
                        f"transfer fails at k={k}, n={n}, r={r}: "
                        f"shuffle side {lhs}, cut side {rhs}"
                    )
                checks += 1
            transfer_R_to_C(k, n)
            checks += 1
    for n in range(2, n_max + 1):
        for k in range(1, k_max + 1):
            l1 = d_pmf_C(k, n).l1_distance(c_pmf_C(k, n))
            if l1 > Fraction(2 * k, n):
                raise CertificationError(
                    f"L1 bound fails at k={k}, n={n}: distance {l1} > {Fraction(2 * k, n)}"
                )
            checks += 1
    return checks


def _suite_generating_function(n_max: int, order: int = 12) -> int:
    """Coefficients of sum_pi t^c(pi) against n (1-t)^n sum_m m^(n-1) t^m."""
    checks = 0
    for n in range(2, n_max + 1):
        counts = cyclic_descent_counts(n)
        for j in range(order + 1):
            rhs = n * sum(
                (-1) ** (j - m) * comb(n, j - m) * m ** (n - 1)
                for m in range(max(0, j - n), j + 1)
            )
            lhs = counts[j - 1] if 1 <= j <= n else 0
            if lhs != rhs:
                raise CertificationError(
                    f"generating function coefficient t^{j} at n={n}: "
                    f"enumeration {lhs}, series {rhs}"
                )
            checks += 1
    return checks


def _suite_pair(oracle_max: int) -> int:
    checks = 0
    for n in range(3, min(oracle_max, 6) + 1):
        perms = list(enumerate_sn(n))
        for p in perms:
            rotation_conditional_law(p)  # self-certifying dual computation
            checks += 1
        for k in (1, 2, 3):
            spec = MeasureSpec("C", k, n)
            total = sum(c_prob(spec, p) * drift(p) for p in perms)
            if total != 0:
                raise CertificationError(
                    f"drift has nonzero mean {total} under the cut measure at k={k}, n={n}"
                )
            checks += 1
    for n in range(3, 11):
        for k in (None, 1, 2, 3):
            PairLaw.build(n, k)  # exchangeability is validated on build
            checks += 1
        g_remainder(n)  # uniform mode cross-checks its own closed form
        checks += 1
    return checks


def _suite_insertion() -> int:
    checks = insertion_normalization(50, 50)
    for n in range(1, 6):
        for k in range(1, 5):
            tree = decision_tree_distribution(k, n)
            spec = MeasureSpec("R", k, n)
            for p in enumerate_sn(n):
                if tree.get(p, Fraction(0)) != r_prob(spec, p):
                    raise CertificationError(
                        f"decision tree mass at k={k}, n={n}, pi={p}: "
                        f"{tree.get(p, Fraction(0))} != {r_prob(spec, p)}"
                    )
                checks += 1
    for n in range(2, 6):
        for p in enumerate_sn(n):
            d = descent_count(p)
            for j in range(n + 1):
                case1 = j == n or (j > 0 and p.word[j - 1] > p.word[j])
                grown = descent_count(insert_symbol(p, j))
                if grown != d + (0 if case1 else 1):
                    raise CertificationError(
                        f"insertion after slot {j} of {p} gives {grown} descents, "
                        f"expected {d + (0 if case1 else 1)}"
                    )
                checks += 1
    return checks


def run_all(
    oracle_max: int = DEFAULT_ORACLE_MAX,
    k_max: int = 12,
    n_max: int = 8,
    inject_fault: str | None = None,
) -> list[SuiteResult]:
    """Run every verification suite and report per-suite outcomes.

    oracle_max caps the enumeration suites (hard limit 9); n_max and
    k_max bound the closed-form grids, which need no enumeration.
    """
    if not 1 <= oracle_max <= ORACLE_MAX_LIMIT:
        raise UserInputError(
            f"oracle_max must lie in 1..{ORACLE_MAX_LIMIT}, got {oracle_max}"
        )
    if k_max < 1 or n_max < 2:
        raise UserInputError(f"need k_max >= 1 and n_max >= 2, got {k_max}, {n_max}")
    if inject_fault is not None and inject_fault not in FAULT_MODES:
        raise UserInputError(f"unknown fault mode {inject_fault!r}; known: {FAULT_MODES}")
    suites = (
        ("eulerian", lambda: _suite_eulerian(oracle_max)),
        ("cyclic-counts", lambda: _suite_cyclic_counts(oracle_max)),
        ("pmf-oracle", lambda: _suite_pmf_oracle(oracle_max, k_max)),
        ("moments", lambda: _suite_moments(oracle_max, k_max)),
        ("transfer", lambda: _suite_transfer(n_max, k_max, inject_fault)),
        ("generating-function", lambda: _suite_generating_function(n_max)),
        ("pair", lambda: _suite_pair(oracle_max)),
        ("insertion", _suite_insertion),
    )
    results = []
    for name, fn in suites:
        try:
            results.append(SuiteResult(name, True, fn()))
        except CertificationError as exc:
            results.append(SuiteResult(name, False, 0, str(exc)))
    return results
