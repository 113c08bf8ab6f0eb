"""Self-contained verification suites behind the `verify` subcommand.

Every suite recomputes a family of identities from scratch, by direct
enumeration over S_n or by exact rational algebra, and compares the
result against the package's closed forms. A failing suite carries a
concrete counterexample in its detail string instead of raising, so one
run reports the status of every suite.

The transfer suite accepts a fault flag, `verify --inject-fault`, that
flips one binomial coefficient in its local recomputation. Injecting the
fault must make the suite fail with a named (k, n, r) counterexample;
this guards the harness itself against vacuous green runs.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

from .errors import CertificationError, UserInputError, _Record
from .eulerian import cyclic_descent_counts, eulerian_value
from .measures import c_pmf_C, c_weight, d_pmf_C, d_pmf_R, r_weight
from .moments import moments_c_C, moments_d_C, moments_d_R, use1_mean
from .pair import PairLaw, drift, g_remainder
from .permutations import cyclic_descent_count, descent_count, insert_symbol
from .sampler import decision_tree_distribution, insertion_normalization

FAULT_MODES = ("transfer",)
DEFAULT_ORACLE_MAX = 7
# Highest oracle_max. On a 2-vCPU machine `verify --oracle-max 9` runs in
# about 2.2 s as one CLI process, most of it counting the 362,880
# elements of S_9; S_10 would take ten times that.
DEFAULT_ENUMERATION_CAP = 9
DEFAULT_K_MAX = 12
DEFAULT_N_MAX = 8
# Cap on k_max * n_max. On a 2-vCPU machine, with oracle_max 9, the
# largest grids it allows, (100, 2) and (1, 200), run in about 3.5 s and
# 2.5 s as CLI processes; (100, 100) took about 12 s in process with the
# cap lifted, and --k-max 100000 ran past 15 s before there was a cap.
GRID_LIMIT = 200
# Highest power of t whose coefficient the generating-function suite checks.
_SERIES_ORDER = 12


class SuiteResult(_Record):
    """Outcome of one verification suite."""

    name: str
    passed: bool
    checks: int
    detail: str = ""


def _joint_counts(n: int) -> Counter:
    """Count permutations of S_n by their (descent, cyclic descent) pair.

    S_1 has no cyclic descent count; its one permutation counts as (0, None).
    """
    out: Counter = Counter()
    for p in permutations(range(1, n + 1)):
        out[(descent_count(p), cyclic_descent_count(p) if n > 1 else None)] += 1
    return out


def _marginal(joint: Counter, axis: int) -> Counter:
    """Counts of the descent (axis 0) or cyclic descent (axis 1) alone."""
    out: Counter = Counter()
    for pair, mult in joint.items():
        out[pair[axis]] += mult
    return out


def _suite_eulerian(joints: dict[int, Counter]) -> int:
    checks = 0
    for n, joint in joints.items():
        hist = _marginal(joint, 0)
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


def _suite_cyclic_counts(joints: dict[int, Counter]) -> int:
    checks = 0
    for n in range(2, max(joints) + 1):
        hist = _marginal(joints[n], 1)
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


def _oracle_laws(joint: Counter, n: int, k: int) -> tuple[Counter, Counter, Counter]:
    """Laws of d under R(k, n) and of c and d under C(k, n), summed over S_n.

    Every value the enumeration meets is a key, those of mass 0 too.
    """
    d_r, c_c, d_c = Counter(), Counter(), Counter()
    for (d, c), mult in joint.items():
        w_c = mult * c_weight(k, n, c)
        d_r[d] += mult * r_weight(k, n, d)
        c_c[c] += w_c
        d_c[d] += w_c
    return d_r, c_c, d_c


def _suite_pmf_oracle(laws: dict[tuple[int, int], tuple[Counter, ...]], k_max: int) -> int:
    checks = 0
    for k in range(1, k_max + 1):
        if d_pmf_R(k, 1).items() != ((0, Fraction(1)),):
            raise CertificationError(f"d pmf at (k={k}, n=1) is not a point mass at 0")
        checks += 1
    for (n, k), oracles in laws.items():
        closed_forms = (d_pmf_R(k, n), c_pmf_C(k, n), d_pmf_C(k, n))
        for name, closed, oracle in zip(("d_pmf_R", "c_pmf_C", "d_pmf_C"), closed_forms, oracles):
            for value in sorted(set(closed.support) | set(oracle)):
                if closed.prob(value) != oracle[value]:
                    raise CertificationError(
                        f"{name}(k={k}, n={n}) at value {value}: closed form "
                        f"{closed.prob(value)}, enumeration {oracle[value]}"
                    )
                checks += 1
    return checks


def _suite_moments(
    joints: dict[int, Counter], laws: dict[tuple[int, int], tuple[Counter, ...]]
) -> int:
    checks = 0
    for (n, k), (d_r, c_c, d_c) in laws.items():
        e_use1 = sum(
            mult * c_weight(k, n, c) * d for (d, c), mult in joints[n].items() if c == d + 1
        )
        c_mom, d_mom, r_mom = moments_c_C(k, n), moments_d_C(k, n), moments_d_R(k, n)
        pairs = (
            ("mean_c", c_mom.mean_exact, sum(c * p for c, p in c_c.items())),
            ("second_c", c_mom.second_exact, sum(c * c * p for c, p in c_c.items())),
            ("mean_d_C", d_mom.mean_exact, sum(d * p for d, p in d_c.items())),
            ("second_d_C", d_mom.second_exact, sum(d * d * p for d, p in d_c.items())),
            ("use1", use1_mean(k, n), e_use1),
            ("mean_d_R", r_mom.mean_exact, sum(d * p for d, p in d_r.items())),
            ("second_d_R", r_mom.second_exact, sum(d * d * p for d, p in d_r.items())),
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
            if d_pmf_R(k, n) != c_side.pushforward(lambda c: c - 1):
                raise CertificationError(f"transfer identity broken at k={k} n={n}")
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


def _suite_generating_function(n_max: int) -> int:
    """Coefficients of sum_pi t^c(pi) against n (1-t)^n sum_m m^(n-1) t^m, to t^_SERIES_ORDER."""
    checks = 0
    for n in range(2, n_max + 1):
        counts = cyclic_descent_counts(n)
        for j in range(_SERIES_ORDER + 1):
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
        # drift(p) builds the self-certifying rotation law of p and checks
        # its mean; one call per permutation serves all three k.
        drifts = [
            (cyclic_descent_count(p), drift(p)) for p in permutations(range(1, n + 1))
        ]
        checks += len(drifts)
        for k in (1, 2, 3):
            total = sum(c_weight(k, n, c) * dr for c, dr in drifts)
            if total != 0:
                raise CertificationError(
                    f"drift has nonzero mean {total} under the cut measure at k={k}, n={n}"
                )
            checks += 1
    for n in range(3, 11):
        for k in (None, 1, 2, 3):
            PairLaw.build(n, k)  # exchangeability is validated on build
            checks += 1
        g_remainder(n)  # cross-checks its own closed form
        checks += 1
    return checks


def _suite_insertion() -> int:
    checks = insertion_normalization()
    for n in range(1, 6):
        for k in range(1, 5):
            tree = decision_tree_distribution(k, n)
            for p in permutations(range(1, n + 1)):
                weight = r_weight(k, n, descent_count(p))
                if tree.get(p, Fraction(0)) != weight:
                    raise CertificationError(
                        f"decision tree mass at k={k}, n={n}, pi={' '.join(map(str, p))}: "
                        f"{tree.get(p, Fraction(0))} != {weight}"
                    )
                checks += 1
    for n in range(2, 6):
        for p in permutations(range(1, n + 1)):
            d = descent_count(p)
            for j in range(n + 1):
                case1 = j == n or (j > 0 and p[j - 1] > p[j])
                grown = descent_count(insert_symbol(p, j))
                if grown != d + (0 if case1 else 1):
                    raise CertificationError(
                        f"insertion after slot {j} of {' '.join(map(str, p))} gives "
                        f"{grown} descents, expected {d + (0 if case1 else 1)}"
                    )
                checks += 1
    return checks


def run_all(
    oracle_max: int = DEFAULT_ORACLE_MAX,
    k_max: int = DEFAULT_K_MAX,
    n_max: int = DEFAULT_N_MAX,
    inject_fault: str | None = None,
) -> list[SuiteResult]:
    """Run every verification suite and report per-suite outcomes.

    oracle_max caps the enumeration suites (hard limit 9); n_max and
    k_max bound the closed-form grids, which need no enumeration, and
    their product may not pass GRID_LIMIT.
    """
    if not 1 <= oracle_max <= DEFAULT_ENUMERATION_CAP:
        raise UserInputError(
            f"oracle_max must lie in 1..{DEFAULT_ENUMERATION_CAP}, got {oracle_max}"
        )
    if k_max < 1 or n_max < 2:
        raise UserInputError(f"need k_max >= 1 and n_max >= 2, got {k_max}, {n_max}")
    if k_max * n_max > GRID_LIMIT:
        raise UserInputError(
            f"--k-max times --n-max must be at most {GRID_LIMIT}, "
            f"got {k_max} * {n_max} = {k_max * n_max}"
        )
    if inject_fault is not None and inject_fault not in FAULT_MODES:
        raise UserInputError(f"unknown fault mode {inject_fault!r}; known: {FAULT_MODES}")
    # The four enumeration suites share one pass over each S_n, and the
    # law and moment suites one set of oracle laws per (n, k).
    joints = {n: _joint_counts(n) for n in range(1, oracle_max + 1)}
    laws = {
        (n, k): _oracle_laws(joints[n], n, k)
        for n in range(2, oracle_max + 1)
        for k in range(1, k_max + 1)
    }
    suites = (
        ("eulerian", lambda: _suite_eulerian(joints)),
        ("cyclic-counts", lambda: _suite_cyclic_counts(joints)),
        ("pmf-oracle", lambda: _suite_pmf_oracle(laws, k_max)),
        ("moments", lambda: _suite_moments(joints, laws)),
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
