"""Exact distributions of descent statistics under shuffle measures.

Two families of measures on S_n are covered. The riffle family R(k, n)
weights a permutation by C(n+k-d-1, n) / k^n where d is its descent
count. The cut-then-riffle family C(k, n) weights it by
C(n+k-c-1, n-1) / (n * k^(n-1)) where c is its cyclic descent count;
this family is invariant under cyclic rotation of the one-line word.

All pmf computation goes through Eulerian tables so it scales to n in
the hundreds; enumeration appears only in tests, as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Optional

from .errors import CertificationError, UserInputError
from .eulerian import shared_table
from .moments import MomentReport, moments_c_C, moments_d_C, moments_d_R
from .permutations import Permutation, cyclic_descent_count, descent_count

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure: family "R" or "C", with pile count k and deck size n."""

    family: str
    k: int
    n: int

    def __post_init__(self) -> None:
        if self.family not in ("R", "C"):
            raise UserInputError(f"unknown family {self.family!r}, want 'R' or 'C'")
        if self.k < 1:
            raise UserInputError("k must be >= 1")
        if self.n < 1:
            raise UserInputError("n must be >= 1")
        if self.family == "C" and self.n < 2:
            raise UserInputError("family C requires n >= 2")


class ExactPmf:
    """A finitely supported pmf with exact rational masses.

    Support values are distinct sorted nonnegative integers; masses are
    positive Fractions summing to exactly 1. Zero-mass values are
    trimmed from the support but remain queryable through prob().
    """

    __slots__ = ("support", "mass")

    support: tuple[int, ...]
    mass: tuple[Fraction, ...]

    def __init__(self, pairs: Iterable[tuple[int, Fraction]]):
        acc: dict[int, Fraction] = {}
        for value, m in pairs:
            if value < 0:
                raise UserInputError(f"negative support value {value}")
            m = Fraction(m)
            if m < 0:
                raise UserInputError(f"negative mass at {value}")
            if m:
                acc[value] = acc.get(value, _ZERO) + m
        total = sum(acc.values(), _ZERO)
        if total != 1:
            raise UserInputError(f"masses sum to {total}, not 1")
        support = tuple(sorted(acc))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", tuple(acc[v] for v in support))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactPmf is immutable")

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(zip(self.support, self.mass))

    def prob(self, value: int) -> Fraction:
        """Exact mass at value; exact 0 off the support."""
        lo, hi = 0, len(self.support)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.support[mid] < value:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(self.support) and self.support[lo] == value:
            return self.mass[lo]
        return _ZERO

    def mean(self) -> Fraction:
        return sum((Fraction(v) * m for v, m in self.items()), _ZERO)

    def second_moment(self) -> Fraction:
        return sum((Fraction(v * v) * m for v, m in self.items()), _ZERO)

    def variance(self) -> Fraction:
        mu = self.mean()
        return self.second_moment() - mu * mu

    def pushforward(self, fn: Callable[[int], int]) -> "ExactPmf":
        return ExactPmf((fn(v), m) for v, m in self.items())

    def l1_distance(self, other: "ExactPmf") -> Fraction:
        values = set(self.support) | set(other.support)
        return sum((abs(self.prob(v) - other.prob(v)) for v in values), _ZERO)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExactPmf)
            and self.support == other.support
            and self.mass == other.mass
        )

    def __hash__(self) -> int:
        return hash((self.support, self.mass))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"ExactPmf({{{inner}}})"

    def to_json_dict(self) -> dict[str, str]:
        """Value -> reduced rational string, e.g. {"0": "3/4", "1": "1/4"}."""
        return {str(v): str(m) for v, m in self.items()}

    def to_csv_rows(self) -> list[tuple[int, int, int, float]]:
        """Rows of (value, numerator, denominator, float mass)."""
        return [(v, m.numerator, m.denominator, float(m)) for v, m in self.items()]

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, Fraction]) -> "ExactPmf":
        return cls(mapping.items())

    @classmethod
    def point_mass(cls, value: int) -> "ExactPmf":
        return cls([(value, _ONE)])


def r_prob(spec: MeasureSpec, p: Permutation) -> Fraction:
    """Probability of the single permutation p under R(k, n)."""
    if spec.family != "R":
        raise UserInputError("r_prob needs a family-R spec")
    if p.n != spec.n:
        raise UserInputError(f"permutation size {p.n} != spec n {spec.n}")
    k, n = spec.k, spec.n
    d = descent_count(p)
    return Fraction(comb(n + k - d - 1, n), k**n)


def c_prob(spec: MeasureSpec, p: Permutation) -> Fraction:
    """Probability of the single permutation p under C(k, n)."""
    if spec.family != "C":
        raise UserInputError("c_prob needs a family-C spec")
    if p.n != spec.n:
        raise UserInputError(f"permutation size {p.n} != spec n {spec.n}")
    k, n = spec.k, spec.n
    c = cyclic_descent_count(p)
    return Fraction(comb(n + k - c - 1, n - 1), n * k ** (n - 1))


def d_pmf_R(k: int, n: int) -> ExactPmf:
    """Exact pmf of the descent count under R(k, n).

    Mass at r is A[n][r+1] * C(n+k-r-1, n) / k^n. The binomial factor
    vanishes for r >= k, which trims the support automatically.
    """
    if k < 1 or n < 1:
        raise UserInputError("need k >= 1 and n >= 1")
    table = shared_table(n)
    den = k**n
    pairs = []
    for r in range(min(n, k)):
        w = table.value(n, r + 1) * comb(n + k - r - 1, n)
        if w:
            pairs.append((r, Fraction(w, den)))
    return ExactPmf(pairs)


def c_pmf_C(k: int, n: int) -> ExactPmf:
    """Exact pmf of the cyclic descent count under C(k, n), n >= 2.

    Mass at i is n * A[n-1][i] * C(n+k-i-1, n-1) / (n * k^(n-1)).
    """
    if k < 1:
        raise UserInputError("need k >= 1")
    if n < 2:
        raise UserInputError("family C requires n >= 2")
    table = shared_table(n - 1)
    den = k ** (n - 1)
    pairs = []
    for i in range(1, min(n - 1, k) + 1):
        w = table.value(n - 1, i) * comb(n + k - i - 1, n - 1)
        if w:
            pairs.append((i, Fraction(w, den)))
    return ExactPmf(pairs)


def d_pmf_C(k: int, n: int) -> ExactPmf:
    """Exact pmf of the plain descent count under C(k, n), n >= 2.

    Conditioned on c, the cyclic rotation that C applies makes the
    descent count land at c with probability (n-c)/n and at c-1 with
    probability c/n, giving
        P(d = l) = P(c = l) * (n-l)/n + P(c = l+1) * (l+1)/n.
    """
    cp = c_pmf_C(k, n)
    pairs = []
    for l in range(0, n):
        m = cp.prob(l) * Fraction(n - l, n) + cp.prob(l + 1) * Fraction(l + 1, n)
        if m:
            pairs.append((l, m))
    return ExactPmf(pairs)


def d_pmf_uniform(n: int) -> ExactPmf:
    """Descent-count pmf under the uniform measure: Eulerian row over n!."""
    if n < 1:
        raise UserInputError("need n >= 1")
    table = shared_table(n)
    den = factorial(n)
    return ExactPmf((r, Fraction(table.value(n, r + 1), den)) for r in range(n))


def c_pmf_uniform(n: int) -> ExactPmf:
    """Cyclic-descent pmf under the uniform measure on S_n, n >= 2."""
    if n < 2:
        raise UserInputError("need n >= 2")
    table = shared_table(n - 1)
    den = factorial(n - 1)
    return ExactPmf(
        (i, Fraction(table.value(n - 1, i), den)) for i in range(1, n)
    )


def transfer_R_to_C(k: int, n: int) -> ExactPmf:
    """Certify P_R(k,n)(d = r) == P_C(k,n+1)(c = r+1) and return the pmf.

    The returned pmf is indexed by r (the descent count on the R side).
    A mismatch can only mean an implementation bug, so it raises
    CertificationError rather than returning a flag.
    """
    dp = d_pmf_R(k, n)
    cp = c_pmf_C(k, n + 1)
    values = set(dp.support) | {i - 1 for i in cp.support}
    for r in sorted(values):
        lhs = dp.prob(r)
        rhs = cp.prob(r + 1)
        if lhs != rhs:
            raise CertificationError(
                f"transfer identity broken at k={k} n={n} r={r}: {lhs} != {rhs}"
            )
    return dp


def parsimony_distance(stat: int, flavor: str) -> int:
    """Minimum shuffle count to reach a permutation with this statistic.

    flavor "riffle" takes the descent count d and returns
    ceil(log2(d+1)); flavor "cut_riffle" takes the cyclic descent count
    c >= 1 and returns ceil(log2(c)). Both are computed purely in
    integer bit arithmetic.
    """
    if flavor == "riffle":
        if stat < 0:
            raise UserInputError("descent count must be >= 0")
        return stat.bit_length()
    if flavor == "cut_riffle":
        if stat < 1:
            raise UserInputError("cyclic descent count must be >= 1")
        return (stat - 1).bit_length()
    raise UserInputError(f"unknown flavor {flavor!r}")


# Overflow tripwire on the shuffle count r where a law needs k = 2**r;
# arbitrary big k is available through d_pmf_R / c_pmf_C directly.
MAX_RIFFLE_ROUNDS = 62


def riffle_piles(rounds: int) -> int:
    """Pile count k = 2**rounds of `rounds` riffle shuffles, within the guard."""
    if rounds < 0:
        raise UserInputError(f"rounds must be nonnegative, got {rounds}")
    if rounds > MAX_RIFFLE_ROUNDS:
        raise UserInputError(f"rounds {rounds} exceeds the {MAX_RIFFLE_ROUNDS}-round guard")
    return 1 << rounds


def parsimony_pmf(n: int, r: int, flavor: str) -> ExactPmf:
    """Pmf of the minimum parsimony distance after r shuffles of n cards.

    Exact pushforward of the relevant statistic's pmf at k = 2^r.
    """
    k = riffle_piles(r)
    return statistic_law(parsimony_measure(flavor), "parsimony").pmf(k, n)


# ---------------------------------------------------------------------------
# The (measure, statistic) law table


@dataclass(frozen=True)
class StatisticLaw:
    """Everything the package knows about one (measure, statistic) pair.

    `base` builds the Eulerian-row law of the statistic the sampler reads
    from each word (`reads`, "d" or "c"); a row with a parsimony
    `flavor` is the pushforward of that law by parsimony_distance.
    `moments` is the exact moment report, if there is one. A row with a
    Poisson code approximates k - offset - s by Poisson(k/m), m = n +
    shift, with certified bound (k/m)^2 [+ 2k/m, when `linear`] +
    k(m+1)(1-1/k)^m.
    """

    base: Callable[[int, int], ExactPmf]
    reads: str
    flavor: Optional[str] = None
    moments: Optional[Callable[[int, int], MomentReport]] = None
    poisson: Optional[str] = None
    offset: int = 0
    shift: int = 0
    linear: bool = True

    def pmf(self, k: int, n: int) -> ExactPmf:
        """Exact law of the statistic under the measure at (k, n)."""
        law = self.base(k, n)
        if self.flavor is None:
            return law
        return law.pushforward(lambda s: parsimony_distance(s, self.flavor))


# Row order fixes the order of the Poisson codes: Cd, Cc, R.
STATISTIC_LAWS: dict[tuple[str, str], StatisticLaw] = {
    ("C", "d"): StatisticLaw(d_pmf_C, "d", moments=moments_d_C, poisson="Cd", linear=False),
    ("C", "c"): StatisticLaw(c_pmf_C, "c", moments=moments_c_C, poisson="Cc"),
    # d under R(k, n) is c - 1 under C(k, n+1), hence offset 1 and shift 1.
    ("R", "d"): StatisticLaw(d_pmf_R, "d", moments=moments_d_R, poisson="R", offset=1, shift=1),
    ("R", "parsimony"): StatisticLaw(d_pmf_R, "d", flavor="riffle"),
    ("C", "parsimony"): StatisticLaw(c_pmf_C, "c", flavor="cut_riffle"),
}


def statistic_law(measure: str, statistic: str) -> StatisticLaw:
    """The table row of (measure, statistic); UserInputError if there is none."""
    law = STATISTIC_LAWS.get((measure, statistic))
    if law is not None:
        return law
    measures = sorted({m for m, _ in STATISTIC_LAWS})
    statistics = sorted({s for _, s in STATISTIC_LAWS})
    if measure not in measures:
        raise UserInputError(f"unknown measure {measure!r}; expected one of {measures}")
    if statistic not in statistics:
        raise UserInputError(f"unknown statistic {statistic!r}; expected one of {statistics}")
    others = sorted(m for m, s in STATISTIC_LAWS if s == statistic)
    raise UserInputError(
        f"statistic {statistic!r} under measure {measure!r} has no closed-form law; "
        f"use measure {' or '.join(map(repr, others))} or another statistic"
    )


def parsimony_measure(flavor: str) -> str:
    """The measure whose parsimony row has this flavor."""
    for (measure, _), law in STATISTIC_LAWS.items():
        if law.flavor is not None and law.flavor == flavor:
            return measure
    raise UserInputError(f"unknown flavor {flavor!r}")
