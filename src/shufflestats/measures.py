"""Exact distributions of descent statistics under shuffle measures.

Two families of measures on S_n are covered. The riffle family R(k, n)
weights a permutation by C(n+k-d-1, n) / k^n where d is its descent
count. The cut-then-riffle family C(k, n) weights it by
C(n+k-c-1, n-1) / (n * k^(n-1)) where c is its cyclic descent count;
this family is invariant under cyclic rotation of the one-line word.

All pmf computation goes through Eulerian rows, and the R and C laws
ask only for the first min(n, k) columns, so at k << n a law costs a
short prefix of the row rather than the whole of it; enumeration
appears only in tests, as the oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import comb, factorial, gcd
from typing import Callable, Iterable, Optional

from .errors import UserInputError, _Record
from .eulerian import eulerian_row
from .moments import MomentReport, moments_c_C, moments_d_C, moments_d_R

_ZERO = Fraction(0)


class ExactPmf:
    """A finitely supported pmf with exact rational masses.

    The law is held as nonnegative int numerators over one int
    denominator: the mass at support[i] is nums[i] / den. Support values
    are distinct sorted nonnegative integers, zero atoms are dropped
    (prob() still answers 0 there), and sum(nums) == den exactly, so
    means, variances and pushforwards are integer sums. Fractions appear
    only at the edge (items, prob, repr), built by each call; the law
    keeps none.

    A law built from an Eulerian row also knows a base b whose powers
    the denominator divides (k for d_pmf_R and c_pmf_C, n*k for d_pmf_C;
    a pushforward keeps it). reduced() puts each atom in lowest terms
    through it: the gcd of a numerator with den is the gcd of den with
    the part of the numerator made of b's primes, and that part is
    peeled off by gcds with the largest power of b within 60 bits (b
    itself if wider) and its divisors, so no gcd against the
    thousands-digit den is taken. A law without a base reduces through
    its own denominator, which divides the first power of itself.
    reduced() stores nothing on the law.

    ExactPmf(den, atoms, base) is the one constructor: mass num / den at
    each value of the (value, num) atoms. Numerators at a repeated value
    add up and must sum to den; base, if given, is an int with den
    dividing a power of it.
    """

    __slots__ = ("support", "nums", "den", "base")

    support: tuple[int, ...]
    nums: tuple[int, ...]
    den: int
    base: Optional[int]

    def __init__(
        self, den: int, atoms: Iterable[tuple[int, int]], base: Optional[int] = None
    ):
        if den < 1:
            raise UserInputError(f"denominator {den} is not positive")
        acc: dict[int, int] = {}
        for value, num in atoms:
            if value < 0:
                raise UserInputError(f"negative support value {value}")
            if num < 0:
                raise UserInputError(f"negative mass at {value}")
            if num:
                acc[value] = acc.get(value, 0) + num
        total = sum(acc.values())
        if total != den:
            raise UserInputError(f"masses sum to {Fraction(total, den)}, not 1")
        support = tuple(sorted(acc))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "nums", tuple(acc[v] for v in support))
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "base", base)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExactPmf is immutable")

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        """(value, reduced mass) of each atom, in support order."""
        den = self.den
        return tuple((v, Fraction(a, den)) for v, a in zip(self.support, self.nums))

    def prob(self, value: int) -> Fraction:
        """Exact mass at value; exact 0 off the support."""
        i = bisect_left(self.support, value)
        if i < len(self.support) and self.support[i] == value:
            return Fraction(self.nums[i], self.den)
        return _ZERO

    def mean(self) -> Fraction:
        return Fraction(sum(v * a for v, a in zip(self.support, self.nums)), self.den)

    def variance(self) -> Fraction:
        s1 = s2 = 0
        for v, a in zip(self.support, self.nums):
            s1 += v * a
            s2 += v * v * a
        return Fraction(self.den * s2 - s1 * s1, self.den * self.den)

    def pushforward(self, fn: Callable[[int], int]) -> "ExactPmf":
        atoms = ((fn(v), a) for v, a in zip(self.support, self.nums))
        return ExactPmf(self.den, atoms, self.base)

    def l1_distance(self, other: "ExactPmf") -> Fraction:
        mine = dict(zip(self.support, self.nums))
        theirs = dict(zip(other.support, other.nums))
        total = sum(
            abs(mine.get(v, 0) * other.den - theirs.get(v, 0) * self.den)
            for v in mine.keys() | theirs.keys()
        )
        return Fraction(total, self.den * other.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactPmf):
            return False
        if self.support != other.support:
            return False
        return all(
            a * other.den == b * self.den for a, b in zip(self.nums, other.nums)
        )

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}: {m}" for v, m in self.items())
        return f"ExactPmf({{{inner}}})"

    def reduced(self) -> Iterable[tuple[int, int, int]]:
        """(value, numerator, denominator) of each atom in lowest terms.

        Equal reduced denominators are one int object.
        """
        # Without a base, den itself serves: it divides den**1.
        den, base = self.den, self.base or self.den
        # One gcd with this power takes most numerators' share of the base.
        chunk = base
        while 1 < base and chunk * base < 1 << 60:
            chunk *= base
        dens: dict[int, int] = {}
        for v, a in zip(self.support, self.nums):
            # g collects the factors of a over b's primes; den has no others.
            g, rest, t = 1, a, gcd(a, chunk)
            while t > 1:
                rest //= t
                g *= t
                t = gcd(rest, t)
            g = gcd(g, den)
            d = dens.get(g)
            if d is None:
                d = dens[g] = den // g
            yield v, a // g, d


def r_weight(k: int, n: int, d: int) -> Fraction:
    """Mass under R(k, n) of any one permutation with d descents."""
    return Fraction(comb(n + k - d - 1, n), k**n)


def c_weight(k: int, n: int, c: int) -> Fraction:
    """Mass under C(k, n) of any one permutation with c cyclic descents."""
    return Fraction(comb(n + k - c - 1, n - 1), n * k ** (n - 1))


def _row_law(
    row: tuple[int, ...], first: int, top: int, m: int, den: int, base: Optional[int] = None
) -> ExactPmf:
    """Mass row[j] * C(top - j, m) / den at first + j: an Eulerian row law.

    The binomials step down by the exact ratio C(t-1, m) = C(t, m) (t-m)/t,
    a small-int multiply and divide per atom where a fresh comb per atom
    cost about 40x more at n = 1000. Every caller keeps t >= 1.
    """

    def atoms():
        w = comb(top, m)
        for j, a in enumerate(row):
            yield first + j, a * w
            t = top - j
            w = w * (t - m) // t

    return ExactPmf(den, atoms(), base)


def d_pmf_R(k: int, n: int) -> ExactPmf:
    """Exact pmf of the descent count under R(k, n).

    Mass at r is A(n, r+1) * C(n+k-r-1, n) / k^n. The binomial factor
    vanishes for r >= k, so only the first min(n, k) columns count.
    """
    if k < 1 or n < 1:
        raise UserInputError("need k >= 1 and n >= 1")
    return _row_law(eulerian_row(n, k), 0, n + k - 1, n, k**n, k)


def c_pmf_C(k: int, n: int) -> ExactPmf:
    """Exact pmf of the cyclic descent count under C(k, n), n >= 2.

    Mass at i is n * A(n-1, i) * C(n+k-i-1, n-1) / (n * k^(n-1)).
    """
    if k < 1:
        raise UserInputError("need k >= 1")
    if n < 2:
        raise UserInputError("family C requires n >= 2")
    return _row_law(eulerian_row(n - 1, k), 1, n + k - 2, n - 1, k ** (n - 1), k)


def d_pmf_C(k: int, n: int) -> ExactPmf:
    """Exact pmf of the plain descent count under C(k, n), n >= 2.

    Conditioned on c, the cyclic rotation that C applies makes the
    descent count land at c with probability (n-c)/n and at c-1 with
    probability c/n, giving
        P(d = l) = P(c = l) * (n-l)/n + P(c = l+1) * (l+1)/n.
    """
    cp = c_pmf_C(k, n)
    num = dict(zip(cp.support, cp.nums))
    return ExactPmf(
        n * cp.den,
        ((l, num.get(l, 0) * (n - l) + num.get(l + 1, 0) * (l + 1)) for l in range(n)),
        n * k,
    )


def d_pmf_uniform(n: int) -> ExactPmf:
    """Descent-count pmf under the uniform measure: Eulerian row over n!."""
    if n < 1:
        raise UserInputError("need n >= 1")
    return _row_law(eulerian_row(n), 0, n, 0, factorial(n))


def c_pmf_uniform(n: int) -> ExactPmf:
    """Cyclic-descent pmf under the uniform measure on S_n, n >= 2."""
    if n < 2:
        raise UserInputError("need n >= 2")
    return _row_law(eulerian_row(n - 1), 1, n, 0, factorial(n - 1))


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


# ---------------------------------------------------------------------------
# The (measure, statistic) law table


class StatisticLaw(_Record):
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
