"""Exact and asymptotic moments of the cyclic descent count.

Exact means and second moments under C(k, n) come from closed formulas
in big-integer power sums. A second, independent route goes through
Bernoulli numbers; the two must agree identically, and the test suite
holds them to that. For k = alpha*n with alpha > 1/(2*pi) the module
also evaluates the sharp asymptotic coefficients

    mean:     E(c) ~ n*m(alpha) + s(alpha)
    variance: Var(c) ~ n*v(alpha)

in 100-digit arithmetic, with computable tail bounds for the Bernoulli
series they come from.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import comb, pi
from typing import Optional

import mpmath as mp

from .errors import CertificationError, UserInputError

# The Bernoulli generating function z/(e^z - 1) has poles at 2*pi*i, so
# the series in 1/alpha converge exactly when alpha > 1/(2*pi).
ALPHA_THRESHOLD = 1.0 / (2.0 * pi)

_WORK_DPS = 100


# ---------------------------------------------------------------------------
# Bernoulli numbers


class BernoulliCache:
    """Exact Bernoulli numbers B_0..B_m, grown on demand.

    Uses the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0 with
    the B_1 = -1/2 convention.
    """

    __slots__ = ("values",)

    def __init__(self, values: tuple[Fraction, ...]):
        self.values = values

    @classmethod
    def build(cls, m: int) -> "BernoulliCache":
        if m < 0:
            raise UserInputError("m must be >= 0")
        values = [Fraction(1)]
        for t in range(1, m + 1):
            acc = sum(
                (comb(t + 1, j) * values[j] for j in range(t)), Fraction(0)
            )
            values.append(-acc / (t + 1))
        return cls(tuple(values))

    def value(self, t: int) -> Fraction:
        return self.values[t]


_bern_lock = threading.Lock()
_bern = BernoulliCache.build(32)


def bernoulli_numbers(m: int) -> BernoulliCache:
    """Shared cache holding at least B_0..B_m."""
    global _bern
    if m < len(_bern.values):
        return _bern
    with _bern_lock:
        if m >= len(_bern.values):
            _bern = BernoulliCache.build(max(m, 2 * len(_bern.values)))
    return _bern


def bernoulli_number(t: int) -> Fraction:
    return bernoulli_numbers(t).value(t)


# ---------------------------------------------------------------------------
# Exact power sums, two ways


def falling_factorial(n: int, t: int) -> int:
    """(n)_t = n (n-1) ... (n-t+1), with (n)_0 = 1."""
    if t < 0:
        raise UserInputError("t must be >= 0")
    out = 1
    for i in range(t):
        out *= n - i
    return out


# Where power_sum takes the Bernoulli route; see its docstring.
_BERNOULLI_MIN_A = 1024
_BERNOULLI_P_MAX = 300


def power_sum(p: int, a: int) -> int:
    """sum_{r=0}^{a-1} r^p exactly (0^0 counted as 1).

    Direct summation costs a big-integer powers; the Bernoulli expansion
    costs p rational terms once B_0..B_p are cached, and building those
    costs O(p^2). On a 2-vCPU machine the two break even near a = 700
    at p = 12, a = 1500 at p = 40 and a = 4000 at p = 160 (warm cache),
    so a >= (p + 1)^2, and a >= 1024, is on the safe side; the cache
    build alone takes 0.4 s at p = 300 and 1.5 s at p = 500, which caps
    p. At p = 9, a = 2^20 the sum drops from about 1 s to 4 ms.
    """
    if p < 0 or a < 0:
        raise UserInputError("need p >= 0 and a >= 0")
    if p == 0:
        return a
    if p <= _BERNOULLI_P_MAX and a >= max(_BERNOULLI_MIN_A, (p + 1) ** 2):
        total = power_sum_bernoulli(p, a)
        if total.denominator != 1:
            raise CertificationError(f"Bernoulli power sum at p={p} a={a} is not an integer")
        return total.numerator
    return sum(r**p for r in range(1, a))


def power_sum_bernoulli(p: int, a: int) -> Fraction:
    """The same partial power sum through the Bernoulli expansion.

    sum_{r=0}^{a-1} r^p = a^p/(p+1) * (a + sum_{t=0}^{p-1}
    B_{t+1} (p+1)_{t+1} / ((t+1)! a^t)). Exact rational arithmetic;
    kept as an independent route so tests can pin it against the direct
    summation.
    """
    if p < 1 or a < 1:
        raise UserInputError("expansion needs p >= 1 and a >= 1")
    bern = bernoulli_numbers(p)
    inner = Fraction(a)
    fact = 1  # (t+1)! running value
    for t in range(p):
        fact *= t + 1
        term = bern.value(t + 1) * falling_factorial(p + 1, t + 1)
        inner += term / (fact * Fraction(a) ** t)
    return Fraction(a) ** p / (p + 1) * inner


# ---------------------------------------------------------------------------
# Exact moments of c under C(k, n)


def mean_c_exact(k: int, n: int) -> Fraction:
    """E(c) = k - n/k^(n-1) * sum_{j=1}^{k-1} j^(n-1), n >= 2."""
    if n < 2:
        raise UserInputError("cyclic descent moments need n >= 2")
    if k < 1:
        raise UserInputError("k must be >= 1")
    return k - Fraction(n * power_sum(n - 1, k), k ** (n - 1))


def second_moment_c_exact(k: int, n: int) -> Fraction:
    """E(c^2) under C(k, n), n >= 2."""
    if n < 2:
        raise UserInputError("cyclic descent moments need n >= 2")
    if k < 1:
        raise UserInputError("k must be >= 1")
    s_n = power_sum(n, k)
    s_nm1 = power_sum(n - 1, k)
    den = k ** (n - 1)
    return (
        k * k
        - Fraction(n * (n + 1) * s_n, den)
        + Fraction(n * (n * k - n - k) * s_nm1, den)
    )


def variance_c_exact(k: int, n: int) -> Fraction:
    mu = mean_c_exact(k, n)
    return second_moment_c_exact(k, n) - mu * mu


def mean_d_C(k: int, n: int) -> Fraction:
    """E(d) = (n-1)/n * E(c) under C(k, n)."""
    return Fraction(n - 1, n) * mean_c_exact(k, n)


def second_moment_d_C(k: int, n: int) -> Fraction:
    """E(d^2) = (1 - 2/n) E(c^2) + E(c)/n under C(k, n)."""
    return (1 - Fraction(2, n)) * second_moment_c_exact(k, n) + Fraction(
        1, n
    ) * mean_c_exact(k, n)


def variance_d_C(k: int, n: int) -> Fraction:
    mu = mean_d_C(k, n)
    return second_moment_d_C(k, n) - mu * mu


def use1_mean(k: int, n: int) -> Fraction:
    """E(d * [position n wraps downward]) = (E(c^2) - E(c)) / n."""
    return (second_moment_c_exact(k, n) - mean_c_exact(k, n)) / n


# ---------------------------------------------------------------------------
# Bernoulli route for the mean


@dataclass(frozen=True)
class AsymptoticSeries:
    """The finite sum E(c) = -k * sum_{t=1}^{n-1} B_t (n)_t / (t! k^t).

    terms[t] holds B_t (n)_t / (t! k^t) for 0 <= t <= n-1; odd terms
    with t >= 3 are exactly zero.
    """

    alpha: float
    terms: tuple[Fraction, ...]

    @classmethod
    def build(cls, k: int, n: int) -> "AsymptoticSeries":
        if n < 2 or k < 1:
            raise UserInputError("need n >= 2 and k >= 1")
        bern = bernoulli_numbers(n - 1)
        terms = []
        fact = 1
        for t in range(n):
            if t:
                fact *= t
            terms.append(
                bern.value(t) * falling_factorial(n, t) / (fact * Fraction(k) ** t)
            )
        return cls(alpha=k / n, terms=tuple(terms))

    def tail_sum(self, start: int = 1) -> Fraction:
        return sum(self.terms[start:], Fraction(0))


def mean_c_bernoulli(k: int, n: int) -> Fraction:
    """E(c) through the Bernoulli series; equals mean_c_exact identically."""
    series = AsymptoticSeries.build(k, n)
    return -k * series.tail_sum(start=1)


# ---------------------------------------------------------------------------
# Elementary estimates backing the asymptotics


def estimate0_deviation(n: int, t: int) -> tuple[Fraction, Fraction]:
    """(|1 - (n)_t/n^t - C(t,2)/n|, C(t,2)^2 / (2 n^2)), both exact.

    The first component never exceeds the second for 0 <= t <= n.
    """
    if not 0 <= t <= n:
        raise UserInputError("need 0 <= t <= n")
    lhs = abs(
        (1 - Fraction(falling_factorial(n, t), n**t)) - Fraction(comb(t, 2), n)
    )
    rhs = Fraction(comb(t, 2) ** 2, 2 * n**2)
    return lhs, rhs


def _geometric_power_tail(q: mp.mpf, l: int, start: int) -> mp.mpf:
    """Upper bound for sum_{t>=start} t^l q^t, 0 < q < 1, start >= 1.

    Terms are summed while the one-step growth ratio can still exceed
    one; once q*(1+1/t)^l < 1 the rest is dominated by a geometric
    series and folded in as a closed-form remainder.
    """
    if not 0 < q < 1:
        raise UserInputError("tail bound needs 0 < q < 1")
    t = start
    total = mp.mpf(0)
    term = mp.mpf(t) ** l * q**t
    while True:
        ratio = q * (1 + mp.mpf(1) / t) ** l
        if ratio < 1:
            return total + term / (1 - ratio)
        total += term
        t += 1
        term = mp.mpf(t) ** l * q**t


def bernoulli_tail_bound(alpha: float, l: int, start: int) -> float:
    """Upper bound on sum_{t>=start} |B_t| t^l / (alpha^t t!).

    Uses |B_{2m}| <= 8 sqrt(pi m) (m/(pi e))^{2m} together with the
    Stirling lower bound t! >= sqrt(2 pi t) (t/e)^t, which combine to
    |B_t|/t! <= 4 (2 pi)^{-t} for every t >= 0. Requires
    alpha > 1/(2 pi) so the majorant series converges.
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(f"tail bound needs alpha > 1/(2*pi), got {alpha}")
    if start < 1:
        raise UserInputError("start must be >= 1")
    with mp.workdps(_WORK_DPS):
        q = 1 / (2 * mp.pi * mp.mpf(alpha))
        return float(4 * _geometric_power_tail(q, l, start))


def bernoulli_tail_exact(alpha: float, l: int, start: int, t_max: int = 400) -> float:
    """Numerical value of sum_{t=start}^{t_max} |B_t| t^l / (alpha^t t!)."""
    bern = bernoulli_numbers(t_max)
    with mp.workdps(_WORK_DPS):
        a = mp.mpf(alpha)
        total = mp.mpf(0)
        for t in range(start, t_max + 1):
            b = bern.value(t)
            if not b:
                continue
            total += (
                abs(mp.mpf(b.numerator)) / b.denominator * mp.mpf(t) ** l
                / (a**t * mp.factorial(t))
            )
        return float(total)


# ---------------------------------------------------------------------------
# Closed forms of the four Bernoulli series


def _closed_forms(alpha: mp.mpf) -> tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    e = mp.exp(1 / alpha)
    em1 = e - 1
    p1 = 1 / (alpha * em1)
    p2 = e * (-2 * alpha * e + 2 * alpha + e + 1) / (2 * alpha**3 * em1**3)
    p3 = (alpha * e - e - alpha) / (alpha * em1**2)
    p4 = e * (3 * alpha * e**2 - e**2 - 4 * e - 3 * alpha - 1) / (
        2 * alpha**3 * em1**4
    )
    return p1, p2, p3, p4


def bernoulli_series_partial(alpha: float, part: int, t_max: int = 200) -> mp.mpf:
    """Truncated sum of series part 1..4 at 100-digit precision.

    1: sum B_t / (t! alpha^t)
    2: sum B_t C(t,2) / (t! alpha^t)
    3: sum B_{t+1} / (t! alpha^t)
    4: sum B_{t+1} C(t,2) / (t! alpha^t)
    """
    if part not in (1, 2, 3, 4):
        raise UserInputError(f"part must be 1..4, got {part}")
    bern = bernoulli_numbers(t_max + 1)
    with mp.workdps(_WORK_DPS):
        a = mp.mpf(alpha)
        total = mp.mpf(0)
        for t in range(t_max + 1):
            b = bern.value(t + 1) if part in (3, 4) else bern.value(t)
            if part in (2, 4):
                w = comb(t, 2)
                if not w:
                    continue
                b = b * w
            if not b:
                continue
            total += (
                mp.mpf(b.numerator) / b.denominator / (mp.factorial(t) * a**t)
            )
        return total


def bernoulli_closed_forms(alpha: float) -> tuple[float, float, float, float]:
    """The four series closed forms, self-checked against truncation.

    Each value is verified to agree with its 200-term partial sum to
    within a computable tail bound before being returned; disagreement
    raises CertificationError since it can only mean a broken formula.
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(
            f"series diverge for alpha <= 1/(2*pi) ~ {ALPHA_THRESHOLD:.6f}"
        )
    t_max = 200
    with mp.workdps(_WORK_DPS):
        closed = _closed_forms(mp.mpf(alpha))
        q = 1 / (2 * mp.pi * mp.mpf(alpha))
        start = t_max + 1
        # Majorants for the dropped tails; see bernoulli_tail_bound for
        # the |B_t|/t! <= 4 (2 pi)^{-t} ingredient. Parts 3 and 4 shift
        # the Bernoulli index by one, giving the extra (t+1) factor.
        tails = (
            4 * _geometric_power_tail(q, 0, start),
            2 * _geometric_power_tail(q, 2, start),
            mp.mpf(4) / mp.pi * _geometric_power_tail(q, 1, start),
            mp.mpf(2) / mp.pi * _geometric_power_tail(q, 3, start),
        )
        for part in (1, 2, 3, 4):
            partial = bernoulli_series_partial(alpha, part, t_max)
            gap = abs(closed[part - 1] - partial)
            # Guard against precision loss in the comparison itself.
            slack = tails[part - 1] + mp.mpf(10) ** (-(_WORK_DPS - 20))
            if gap > slack:
                raise CertificationError(
                    f"closed form {part} at alpha={alpha} off by {float(gap)}, "
                    f"tail bound {float(slack)}"
                )
        return tuple(float(v) for v in closed)  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Asymptotic coefficients


def asymptotic_mean_c(alpha: float) -> tuple[mp.mpf, mp.mpf]:
    """(m, s) with E(c) = n*m + s + O(1/n) at k = alpha*n.

    m(alpha) = alpha - 1/(e^(1/alpha) - 1)
    s(alpha) = e^(1/a) (-2a e^(1/a) + 2a + e^(1/a) + 1) / (2 a^2 (e^(1/a)-1)^3)
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(f"need alpha > 1/(2*pi), got {alpha}")
    with mp.workdps(_WORK_DPS):
        a = mp.mpf(alpha)
        e = mp.exp(1 / a)
        m = a - 1 / (e - 1)
        s = e * (-2 * a * e + 2 * a + e + 1) / (2 * a**2 * (e - 1) ** 3)
        return m, s


def asymptotic_variance_c(alpha: float) -> mp.mpf:
    """v with Var(c) = n*v + O(1) at k = alpha*n.

    v(alpha) = e^(1/a) (a^2 e^(2/a) + a^2 - 2 a^2 e^(1/a) - e^(1/a))
               / (a^2 (e^(1/a) - 1)^4)
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(f"need alpha > 1/(2*pi), got {alpha}")
    with mp.workdps(_WORK_DPS):
        a = mp.mpf(alpha)
        e = mp.exp(1 / a)
        return e * (a**2 * e**2 + a**2 - 2 * a**2 * e - e) / (
            a**2 * (e - 1) ** 4
        )


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class MomentReport:
    """Exact moments with optional asymptotic companions.

    The asymptotic fields are None when alpha = k/n does not clear the
    1/(2*pi) convergence threshold. error_* fields are exact minus
    asymptotic, as floats.
    """

    k: int
    n: int
    mean_exact: Fraction
    second_exact: Fraction
    variance_exact: Fraction
    mean_asym: Optional[float]
    variance_asym: Optional[float]
    error_mean: Optional[float]
    error_variance: Optional[float]

    def to_json_dict(self, include_asym: bool = True) -> dict:
        out: dict = {
            "k": self.k,
            "n": self.n,
            "mean_exact": str(self.mean_exact),
            "second_exact": str(self.second_exact),
            "variance_exact": str(self.variance_exact),
            "mean_float": float(self.mean_exact),
            "variance_float": float(self.variance_exact),
        }
        if include_asym:
            out["mean_asym"] = self.mean_asym
            out["variance_asym"] = self.variance_asym
            out["error_mean"] = self.error_mean
            out["error_variance"] = self.error_variance
        return out


def _report(
    k: int, n: int, mean: Fraction, second: Fraction, n_scale: int, shift: int
) -> MomentReport:
    variance = second - mean * mean
    if variance < 0:
        raise CertificationError(f"negative variance at k={k} n={n}: {variance}")
    alpha = k / n_scale
    mean_asym = variance_asym = err_m = err_v = None
    if alpha > ALPHA_THRESHOLD:
        with mp.workdps(_WORK_DPS):
            m, s = asymptotic_mean_c(alpha)
            v = asymptotic_variance_c(alpha)
            ma = n_scale * m + s + shift
            va = n_scale * v
            mean_asym = float(ma)
            variance_asym = float(va)
            err_m = float(mp.mpf(mean.numerator) / mean.denominator - ma)
            err_v = float(
                mp.mpf(variance.numerator) / variance.denominator - va
            )
    return MomentReport(
        k=k,
        n=n,
        mean_exact=mean,
        second_exact=second,
        variance_exact=variance,
        mean_asym=mean_asym,
        variance_asym=variance_asym,
        error_mean=err_m,
        error_variance=err_v,
    )


def moments_c_C(k: int, n: int) -> MomentReport:
    """Moment report for the cyclic descent count under C(k, n)."""
    return _report(
        k, n, mean_c_exact(k, n), second_moment_c_exact(k, n), n, 0
    )


def moments_d_C(k: int, n: int) -> MomentReport:
    """Moment report for the descent count under C(k, n), exact fields only."""
    return MomentReport(
        k=k,
        n=n,
        mean_exact=mean_d_C(k, n),
        second_exact=second_moment_d_C(k, n),
        variance_exact=variance_d_C(k, n),
        mean_asym=None,
        variance_asym=None,
        error_mean=None,
        error_variance=None,
    )


def moments_d_R(k: int, n: int) -> MomentReport:
    """Moment report for the descent count under R(k, n).

    d under R(k, n) is distributed as c - 1 under C(k, n+1), so the
    exact moments transfer with a unit shift and the asymptotic scale
    is n+1 rather than n.
    """
    if k < 1 or n < 1:
        raise UserInputError("need k >= 1 and n >= 1")
    mean_c = mean_c_exact(k, n + 1)
    second_c = second_moment_c_exact(k, n + 1)
    mean = mean_c - 1
    second = second_c - 2 * mean_c + 1
    return _report(k, n, mean, second, n + 1, -1)
