"""Poisson approximation: Stein solver, exact TV, certified bounds.

Three statistics are covered, each approaching a Poisson law:

    code "Cd": k - d(pi) under C(k, n), lambda = k/n
    code "Cc": k - c(pi) under C(k, n), lambda = k/n
    code "R":  k - 1 - d(pi) under R(k, n), lambda = k/(n+1)

The certified upper bounds are

    Cd: (k/n)^2 + k(n+1)(1-1/k)^n
    Cc: (k/n)^2 + 2k/n + k(n+1)(1-1/k)^n
    R:  (k/(n+1))^2 + 2k/(n+1) + k(n+2)(1-1/k)^(n+1)

which is one formula, (k/m)^2 [+ 2k/m] + k(m+1)(1-1/k)^m: R at n is Cc
at m = n+1 by the transfer identity, and Cd drops the 2k/m term. The
codes, offsets and shifts are read from measures.STATISTIC_LAWS. Every
report checks tv_exact <= bound, raising CertificationError
when the certificate fails (which would mean a bug, not a near miss).

Numerics policy. The Stein equation is solved by the forward recurrence
g(j+1) = (1{j in A} - P(A) + j g(j)) / lambda exactly as constructed,
but in mpmath working precision sized to the instance: the recurrence's
homogeneous mode grows like j!/lambda^j, so double precision loses the
bounded solution entirely well before j = 20 at lambda = 1. Extending
the mantissa by log10(j_max!/lambda^j_max) digits keeps the returned
floats correct to ~1e-15. Total variation against Poisson is computed
at 40-digit precision over the pmf's range only: the Poisson masses sum
to 1, so everything outside the range is one minus the Poisson mass
inside it, and the loop costs n terms even when k, and with it the
range's offset, is far above n. The rounding error goes into a reported
sandwich, whose width stays far below 1e-13.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from fractions import Fraction
from math import ceil, exp, lgamma, log
from typing import Iterable, Union

import mpmath as mp

from .errors import CertificationError, UserInputError
from .measures import STATISTIC_LAWS, ExactPmf, StatisticLaw

Rational = Union[Fraction, float]

_POISSON_LAWS = {law.poisson: law for law in STATISTIC_LAWS.values() if law.poisson}
STATISTIC_CODES = tuple(_POISSON_LAWS)

_TV_DPS = 40
_SANDWICH_LIMIT = 1e-13


def poisson_pmf(lam: float, j: int) -> float:
    """P(Poisson(lam) = j), evaluated in log space for stability."""
    if lam <= 0:
        raise UserInputError("lambda must be positive")
    if j < 0:
        raise UserInputError("j must be >= 0")
    return exp(-lam + j * log(lam) - lgamma(j + 1))


def _mpf_of(x: Rational) -> mp.mpf:
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def _mpf_ratio(num: int, den: int) -> mp.mpf:
    """num / den at working precision, from one short integer division.

    The truncated quotient keeps 20 bits beyond the precision before it
    is rounded; converting a big num and den to mpf first cost about 17x
    more per atom at 2000 digits.
    """
    shift = max(0, den.bit_length() - num.bit_length()) + mp.mp.prec + 20
    return mp.mpf(((num << shift) // den, -shift))


@dataclass(frozen=True)
class SteinSolution:
    """Solution g of lambda*g(j+1) - j*g(j) = 1{j in A} - P_lambda(A).

    g is tabulated on 0..j_max with g(0) = 0. The classical bounds
    sup|g| <= 1 and sup|g(j+1) - g(j)| <= 1 hold for every instance.
    """

    lam: Rational
    target_set: frozenset[int]
    g: tuple[float, ...]

    @property
    def j_max(self) -> int:
        return len(self.g) - 1

    def sup_g(self) -> float:
        return max(abs(v) for v in self.g)

    def sup_delta_g(self) -> float:
        return max(
            abs(b - a) for a, b in zip(self.g, self.g[1:])
        )

    def max_residual(self) -> float:
        """Worst |lambda*g(j+1) - j*g(j) - rhs(j)| in double arithmetic."""
        lam = float(self.lam)
        p_a = sum(poisson_pmf(lam, a) for a in sorted(self.target_set))
        worst = 0.0
        for j in range(self.j_max):
            rhs = (1.0 if j in self.target_set else 0.0) - p_a
            worst = max(worst, abs(lam * self.g[j + 1] - j * self.g[j] - rhs))
        return worst


def solve_stein(lam: Rational, A: Iterable[int], j_max: int) -> SteinSolution:
    """Forward-recurrence solution of the Stein equation on 0..j_max.

    Working precision is 30 digits plus the decimal size of
    j_max!/lambda^j_max, which is exactly the factor by which the
    recurrence amplifies rounding noise.
    """
    target = frozenset(A)
    if any(a < 0 for a in target):
        raise UserInputError("target set must contain nonnegative integers")
    if j_max < 1:
        raise UserInputError("j_max must be >= 1")
    if any(a > j_max for a in target):
        raise UserInputError("target set reaches beyond j_max")
    lam_f = float(lam)
    if lam_f <= 0:
        raise UserInputError("lambda must be positive")
    amplification = lgamma(j_max + 1) - j_max * log(lam_f)
    dps = 30 + max(0, ceil(amplification / log(10.0)))
    with mp.workdps(dps):
        lam_mp = _mpf_of(lam)
        p_a, q_0 = mp.mpf(0), mp.e ** (-lam_mp)
        for a in sorted(target):
            p_a += q_0 * lam_mp**a / mp.factorial(a)
        g = [mp.mpf(0)]
        for j in range(j_max):
            ind = 1 if j in target else 0
            g.append((ind - p_a + j * g[j]) / lam_mp)
        sol = SteinSolution(lam, target, tuple(float(v) for v in g))
    if sol.max_residual() >= 1e-12:
        raise CertificationError(
            f"Stein residual {sol.max_residual():.3e} at lambda={lam_f}, "
            f"j_max={j_max}"
        )
    if sol.sup_g() > 1.0 or sol.sup_delta_g() > 1.0:
        raise CertificationError(
            f"Stein solution bound violated: sup|g|={sol.sup_g():.6f}, "
            f"sup|dg|={sol.sup_delta_g():.6f}"
        )
    return sol


def tv_sandwich(pmf: ExactPmf, lam: Rational) -> tuple[float, float]:
    """Lower and upper enclosure of TV(pmf, Poisson(lambda)).

    TV is half the L1 distance. Off the pmf's range [s, t] every term
    |p_j - q_j| is the Poisson mass q_j, and the q_j sum to 1, so

        sum_j |p_j - q_j| = 1 + sum_{j=s}^{t} (|p_j - q_j| - q_j),

    a finite sum. It runs at 40-digit precision from q_s, which is
    evaluated directly in log space; the pmf side is exact up to the
    final rounding of num / den. The rounding error of the sum is folded
    into the upper end of the sandwich.
    """
    lam_f = float(lam)
    if lam_f <= 0:
        raise UserInputError("lambda must be positive")
    with mp.workdps(_TV_DPS):
        lam_mp = _mpf_of(lam)
        s = pmf.support[0]
        q = mp.exp(-lam_mp + s * mp.log(lam_mp) - mp.loggamma(s + 1))
        num = dict(zip(pmf.support, pmf.nums))
        den = pmf.den
        acc = mp.mpf(1)
        for j in range(s, pmf.support[-1] + 1):
            a = num.get(j)
            p = _mpf_ratio(a, den) if a else 0
            acc += abs(p - q) - q
            q = q * lam_mp / (j + 1)
        slop = mp.mpf(10) ** (-(_TV_DPS - 12))
        lo = acc / 2
        hi = lo + slop
        return float(lo), float(hi)


def tv_exact_vs_poisson(pmf: ExactPmf, lam: Rational) -> float:
    """TV distance to Poisson(lambda), certified to sandwich width 1e-13."""
    lo, hi = tv_sandwich(pmf, lam)
    if hi - lo >= _SANDWICH_LIMIT:
        raise CertificationError(
            f"TV sandwich too wide: [{lo!r}, {hi!r}] at lambda={float(lam)}"
        )
    return (lo + hi) / 2


# ---------------------------------------------------------------------------
# Certified bounds


def certified_bound(k: int, n: int, statistic: str) -> Fraction:
    """(k/m)^2 [+ 2k/m] + k(m+1)(1-1/k)^m, m = n + shift of the coded row."""
    if k < 1 or n < 1:
        raise UserInputError("need k >= 1 and n >= 1")
    law = _poisson_law(statistic)
    m = n + law.shift
    lam = Fraction(k, m)
    bound = lam**2 + k * (m + 1) * Fraction(k - 1, k) ** m
    return bound + 2 * lam if law.linear else bound


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class TvReport:
    """One certified comparison of an exact law against its Poisson limit."""

    k: int
    n: int
    statistic: str
    lam: float
    tv_exact: float
    bound: float
    slack: float

    CSV_HEADER = ("k", "n", "statistic", "lambda", "tv_exact", "bound", "slack")

    def csv_row(self) -> tuple:
        return astuple(self)


def _poisson_law(statistic: str) -> StatisticLaw:
    law = _POISSON_LAWS.get(statistic)
    if law is None:
        raise UserInputError(
            f"unknown statistic {statistic!r}, expected one of {STATISTIC_CODES}"
        )
    return law


def statistic_pushforward(k: int, n: int, statistic: str) -> tuple[ExactPmf, Fraction]:
    """Exact law of the coded statistic and its Poisson rate."""
    law = _poisson_law(statistic)
    pmf = law.pmf(k, n).pushforward(lambda s: k - law.offset - s)
    return pmf, Fraction(k, n + law.shift)


def tv_report(k: int, n: int, statistic: str) -> TvReport:
    """Exact TV against the Poisson limit plus the certified bound.

    Raises CertificationError if the bound fails: the bound holds for
    every k and n, so a violation can only be an implementation fault.
    """
    pmf, lam = statistic_pushforward(k, n, statistic)
    tv = tv_exact_vs_poisson(pmf, lam)
    bound = certified_bound(k, n, statistic)
    slack = float(bound) - tv
    if slack < 0:
        raise CertificationError(
            f"certified bound failed: statistic {statistic} k={k} n={n} "
            f"tv={tv!r} bound={float(bound)!r}"
        )
    return TvReport(
        k=k,
        n=n,
        statistic=statistic,
        lam=float(lam),
        tv_exact=tv,
        bound=float(bound),
        slack=slack,
    )


def sweep_k_values(n: int, points: int = 20) -> list[int]:
    """Up to ``points`` integers evenly spread over 1..floor(n/4)."""
    if n < 4:
        raise UserInputError("sweep needs n >= 4 so that floor(n/4) >= 1")
    if points < 1:
        raise UserInputError(f"sweep needs at least one k point, got {points}")
    k_top = n // 4
    # At points == k_top the rounding step is 1 and every k is hit.
    points = min(points, k_top)
    raw = {1 + round(i * (k_top - 1) / max(1, points - 1)) for i in range(points)}
    return sorted(min(v, k_top) for v in raw)


def certification_sweep(
    n_list: Iterable[int] = (20, 50, 100, 200, 400),
    k_points: int = 20,
    statistics: Iterable[str] = STATISTIC_CODES,
) -> list[TvReport]:
    """tv_report over the full certification grid; raises on any failure."""
    reports = []
    for n in n_list:
        for k in sweep_k_values(n, k_points):
            for stat in statistics:
                reports.append(tv_report(k, n, stat))
    return reports
