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
from functools import cached_property
from fractions import Fraction
from math import comb, perm, pi
from typing import Optional

from .errors import CertificationError, UserInputError, _LazyModule

mp = _LazyModule("mpmath", "mp", globals())

# The Bernoulli generating function z/(e^z - 1) has poles at 2*pi*i, so
# the series in 1/alpha converge exactly when alpha > 1/(2*pi).
ALPHA_THRESHOLD = 1.0 / (2.0 * pi)

_WORK_DPS = 100
# Terms summed by the closed-form self-check.
_SERIES_TERMS = 200


# ---------------------------------------------------------------------------
# Bernoulli numbers


_bern_lock = threading.Lock()
_bern: tuple[Fraction, ...] = (Fraction(1),)


def bernoulli_numbers(m: int) -> tuple[Fraction, ...]:
    """The shared tuple B_0..B_j, j >= m, grown on demand.

    Uses the defining recurrence sum_{j=0}^{t} C(t+1, j) B_j = 0 with
    the B_1 = -1/2 convention.
    """
    global _bern
    if m < len(_bern):
        return _bern
    with _bern_lock:
        if m >= len(_bern):
            values = list(_bern)
            for t in range(len(values), max(m, 2 * len(values)) + 1):
                acc = sum((comb(t + 1, j) * values[j] for j in range(t)), Fraction(0))
                values.append(-acc / (t + 1))
            _bern = tuple(values)
    return _bern


# ---------------------------------------------------------------------------
# Exact power sums, two ways


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
    B_{t+1} (p+1)_{t+1} / ((t+1)! a^t)), where (x)_t is the falling
    factorial. Exact rational arithmetic; kept as an independent route
    so tests can pin it against the direct summation.
    """
    if p < 1 or a < 1:
        raise UserInputError("expansion needs p >= 1 and a >= 1")
    bern = bernoulli_numbers(p)
    inner = Fraction(a)
    fact = 1  # (t+1)! running value
    for t in range(p):
        fact *= t + 1
        inner += bern[t + 1] * perm(p + 1, t + 1) / (fact * Fraction(a) ** t)
    return Fraction(a) ** p / (p + 1) * inner


# ---------------------------------------------------------------------------
# Exact moments under C(k, n)


def _c_moments(k: int, n: int) -> tuple[Fraction, Fraction]:
    """(E(c), E(c^2)) under C(k, n), n >= 2, from two power sums.

    With S(p) = sum_{j=1}^{k-1} j^p:
        E(c)   = k - n S(n-1) / k^(n-1)
        E(c^2) = k^2 - (n (n+1) S(n) - n (nk - n - k) S(n-1)) / k^(n-1)
    Every other moment is algebra on these two.
    """
    if n < 2:
        raise UserInputError("cyclic descent moments need n >= 2")
    if k < 1:
        raise UserInputError("k must be >= 1")
    s_nm1 = power_sum(n - 1, k)
    s_n = power_sum(n, k)
    den = k ** (n - 1)
    mean = k - Fraction(n * s_nm1, den)
    second = k * k - Fraction(n * (n + 1) * s_n - n * (n * k - n - k) * s_nm1, den)
    return mean, second


def use1_mean(k: int, n: int) -> Fraction:
    """E(d * [position n wraps downward]) = (E(c^2) - E(c)) / n."""
    mean, second = _c_moments(k, n)
    return (second - mean) / n


# ---------------------------------------------------------------------------
# Elementary estimates backing the asymptotics


def estimate0_deviation(n: int, t: int) -> tuple[Fraction, Fraction]:
    """(|1 - (n)_t/n^t - C(t,2)/n|, C(t,2)^2 / (2 n^2)), both exact.

    The first component never exceeds the second for 0 <= t <= n.
    """
    if not 0 <= t <= n:
        raise UserInputError("need 0 <= t <= n")
    lhs = abs(
        (1 - Fraction(perm(n, t), n**t)) - Fraction(comb(t, 2), n)
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


# ---------------------------------------------------------------------------
# Closed forms of the four Bernoulli series


def _mean_closed_forms(alpha: mp.mpf, e: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """Closed forms 1 and 2, the two the mean needs, at e = e^(1/alpha)."""
    em1 = e - 1
    p1 = 1 / (alpha * em1)
    p2 = e * (-2 * alpha * e + 2 * alpha + e + 1) / (2 * alpha**3 * em1**3)
    return p1, p2


def _closed_forms(alpha: mp.mpf) -> tuple[mp.mpf, mp.mpf, mp.mpf, mp.mpf]:
    e = mp.exp(1 / alpha)
    em1 = e - 1
    p1, p2 = _mean_closed_forms(alpha, e)
    p3 = (alpha * e - e - alpha) / (alpha * em1**2)
    p4 = e * (3 * alpha * e**2 - e**2 - 4 * e - 3 * alpha - 1) / (
        2 * alpha**3 * em1**4
    )
    return p1, p2, p3, p4


def bernoulli_series_partial(alpha: float, part: int) -> mp.mpf:
    """Sum over t <= _SERIES_TERMS (200) of series part 1..4, at 100-digit precision.

    1: sum B_t / (t! alpha^t)
    2: sum B_t C(t,2) / (t! alpha^t)
    3: sum B_{t+1} / (t! alpha^t)
    4: sum B_{t+1} C(t,2) / (t! alpha^t)
    """
    if part not in (1, 2, 3, 4):
        raise UserInputError(f"part must be 1..4, got {part}")
    bern = bernoulli_numbers(_SERIES_TERMS + 1)
    with mp.workdps(_WORK_DPS):
        a = mp.mpf(alpha)
        total = mp.mpf(0)
        for t in range(_SERIES_TERMS + 1):
            b = bern[t + 1] if part in (3, 4) else bern[t]
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

    Each value is verified to agree with its partial sum over
    t <= _SERIES_TERMS (200) to within a computable tail bound before
    being returned; disagreement raises CertificationError since it can
    only mean a broken formula.
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(
            f"series diverge for alpha <= 1/(2*pi) ~ {ALPHA_THRESHOLD:.6f}"
        )
    with mp.workdps(_WORK_DPS):
        closed = _closed_forms(mp.mpf(alpha))
        q = 1 / (2 * mp.pi * mp.mpf(alpha))
        start = _SERIES_TERMS + 1
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
            partial = bernoulli_series_partial(alpha, part)
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

    m(alpha) = alpha (1 - p1) = alpha - 1/(e^(1/alpha) - 1)
    s(alpha) = alpha p2, with p1, p2 the first two series closed forms.
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(f"need alpha > 1/(2*pi), got {alpha}")
    with mp.workdps(_WORK_DPS):
        a = mp.mpf(alpha)
        p1, p2 = _mean_closed_forms(a, mp.exp(1 / a))
        return a * (1 - p1), a * p2


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
    """Exact moments, with asymptotic companions evaluated on first read.

    The asymptotics are those of c under C(k, scale), shifted by shift.
    The asymptotic fields are None without a scale, or when alpha =
    k/scale does not clear the 1/(2*pi) convergence threshold. error_*
    fields are exact minus asymptotic, as floats.
    """

    k: int
    n: int
    mean_exact: Fraction
    second_exact: Fraction
    variance_exact: Fraction
    scale: Optional[int] = None
    shift: int = 0

    @cached_property
    def _asymptotics(self) -> tuple[Optional[float], ...]:
        """(mean_asym, variance_asym, error_mean, error_variance)."""
        if self.scale is None or self.k / self.scale <= ALPHA_THRESHOLD:
            return (None, None, None, None)
        alpha = self.k / self.scale
        mean, variance = self.mean_exact, self.variance_exact
        with mp.workdps(_WORK_DPS):
            m, s = asymptotic_mean_c(alpha)
            ma = self.scale * m + s + self.shift
            va = self.scale * asymptotic_variance_c(alpha)
            return (
                float(ma),
                float(va),
                float(mp.mpf(mean.numerator) / mean.denominator - ma),
                float(mp.mpf(variance.numerator) / variance.denominator - va),
            )

    mean_asym = property(lambda self: self._asymptotics[0])
    variance_asym = property(lambda self: self._asymptotics[1])
    error_mean = property(lambda self: self._asymptotics[2])
    error_variance = property(lambda self: self._asymptotics[3])


def _report(
    k: int, n: int, mean: Fraction, second: Fraction, scale: Optional[int] = None, shift: int = 0
) -> MomentReport:
    """Exact fields; scale and shift fix the asymptotics (see MomentReport)."""
    variance = second - mean * mean
    if variance < 0:
        raise CertificationError(f"negative variance at k={k} n={n}: {variance}")
    return MomentReport(k, n, mean, second, variance, scale, shift)


def moments_c_C(k: int, n: int) -> MomentReport:
    """Moment report for the cyclic descent count under C(k, n)."""
    mean, second = _c_moments(k, n)
    return _report(k, n, mean, second, n)


def moments_d_C(k: int, n: int) -> MomentReport:
    """Moment report for the descent count under C(k, n), exact fields only.

    E(d) = (n-1)/n E(c) and E(d^2) = (1 - 2/n) E(c^2) + E(c)/n.
    """
    mean_c, second_c = _c_moments(k, n)
    return _report(k, n, (n - 1) * mean_c / n, ((n - 2) * second_c + mean_c) / n)


def moments_d_R(k: int, n: int) -> MomentReport:
    """Moment report for the descent count under R(k, n).

    d under R(k, n) is distributed as c - 1 under C(k, n+1), so the
    exact moments transfer with a unit shift and the asymptotic scale
    is n+1 rather than n.
    """
    if k < 1 or n < 1:
        raise UserInputError("need k >= 1 and n >= 1")
    mean_c, second_c = _c_moments(k, n + 1)
    return _report(k, n, mean_c - 1, second_c - 2 * mean_c + 1, n + 1, -1)
