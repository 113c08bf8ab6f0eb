"""Exact and asymptotic moments of the cyclic descent count.

Exact means and second moments under C(k, n) come from closed formulas
in big-integer power sums. For large k they come from a second,
independent route, Newton's forward differences, which the test suite
holds to sum(r**p). For k = alpha*n with alpha > 1/(2*pi) the module
also evaluates the sharp asymptotic coefficients

    mean:     E(c) ~ n*m(alpha) + s(alpha)
    variance: Var(c) ~ n*v(alpha)

in at least 100-digit arithmetic, with computable tail bounds for the
Bernoulli series they come from.
"""

from __future__ import annotations

import threading
from functools import cached_property
from fractions import Fraction
from itertools import pairwise
from math import ceil, comb, log10, perm, pi
from typing import Optional

from .errors import CertificationError, UserInputError, _LazyModule, _Record
from .eulerian import _powers

mp = _LazyModule("mpmath", "mp", globals())

# The Bernoulli generating function z/(e^z - 1) has poles at 2*pi*i, so
# the series in 1/alpha converge exactly when alpha > 1/(2*pi).
ALPHA_THRESHOLD = 1.0 / (2.0 * pi)

_WORK_DPS = 100
# Terms summed by the closed-form self-check.
_SERIES_TERMS = 200


def _guarded_dps(alpha: float) -> int:
    """_WORK_DPS plus the 4 digits per decade of alpha that e^(1/alpha) - 1 cancels."""
    return _WORK_DPS + 4 * max(0, ceil(log10(alpha)))


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
# Exact power sums


_DIFFERENCES_PER_P = 32  # power_sum's switch; see its docstring


def power_sum(p: int, a: int) -> int:
    """sum_{r=0}^{a-1} r^p exactly (0^0 counted as 1).

    Direct summation costs a big-integer powers (eulerian._powers).
    Newton's series sum_{j=0}^{p} D^j(0) C(a, j+1), D^j(0) the j-th
    forward difference of r^p at r = 0 (Concrete Mathematics, 2nd ed.,
    2.6 and 6.1), needs the powers of r <= p and p^2/2 subtractions,
    whatever a is. On a 2-vCPU machine (Python 3.11) _power_sum_pair's
    routes break even near a = 10p for p <= 30, 20p at p = 100, 26p at
    p = 300 and 34p at p = 1000, a ratio that grows only slowly with p,
    so one multiple of p serves: at a = 32(p + 1), differences ran 0.93x
    (p = 1000) to 3.2x (p = 10) the speed of direct summation, p <= 3000.
    """
    if p < 0 or a < 0:
        raise UserInputError("need p >= 0 and a >= 0")
    if p == 0:
        return a
    if a <= _DIFFERENCES_PER_P * p:
        return sum(_powers(p, a))
    row = list(_powers(p, p + 1))
    total, binom = 0, a  # binom = C(a, j + 1)
    for j in range(p + 1):
        total += row[0] * binom
        binom = binom * (a - j - 1) // (j + 2)
        row = [y - x for x, y in pairwise(row)]
    return total


def _power_sum_pair(p: int, a: int) -> tuple[int, int]:
    """(power_sum(p, a), power_sum(p + 1, a)) for p >= 1.

    Past the switch both sums take differences; below it both come from
    one table of r^p, the second as sum r * r^p.
    """
    if a > _DIFFERENCES_PER_P * (p + 1):
        return power_sum(p, a), power_sum(p + 1, a)
    lower = upper = 0
    for r, power in enumerate(_powers(p, a)):
        lower += power
        upper += r * power
    return lower, upper


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
    s_nm1, s_n = _power_sum_pair(n - 1, k)
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


# ---------------------------------------------------------------------------
# Closed forms of the four Bernoulli series


def _mean_closed_forms(alpha: mp.mpf, e: mp.mpf) -> tuple[mp.mpf, mp.mpf]:
    """Closed forms 1 and 2, the two the mean needs, at e = e^(1/alpha)."""
    em1 = e - 1
    p1 = 1 / (alpha * em1)
    p2 = e * (-2 * alpha * e + 2 * alpha + e + 1) / (2 * alpha**3 * em1**3)
    return p1, p2


def _series_partials(a: mp.mpf) -> list[mp.mpf]:
    """The four series summed over t <= _SERIES_TERMS (200), in one pass:

    1: sum B_t / (t! alpha^t)
    2: sum B_t C(t,2) / (t! alpha^t)
    3: sum B_{t+1} / (t! alpha^t)
    4: sum B_{t+1} C(t,2) / (t! alpha^t)
    """
    bern = bernoulli_numbers(_SERIES_TERMS + 1)
    totals = [mp.mpf(0)] * 4
    for t in range(_SERIES_TERMS + 1):
        scale = mp.factorial(t) * a**t
        w = comb(t, 2)
        for part, b in enumerate((bern[t], bern[t] * w, bern[t + 1], bern[t + 1] * w)):
            if b:
                totals[part] += mp.mpf(b.numerator) / b.denominator / scale
    return totals


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
        a = mp.mpf(alpha)
        e = mp.exp(1 / a)
        em1 = e - 1
        closed = (
            *_mean_closed_forms(a, e),
            (a * e - e - a) / (a * em1**2),
            e * (3 * a * e**2 - e**2 - 4 * e - 3 * a - 1) / (2 * a**3 * em1**4),
        )
        q = 1 / (2 * mp.pi * a)
        start = _SERIES_TERMS + 1
        # Majorants for the dropped tails. |B_2m| <= 8 sqrt(pi m) (m/(pi e))^2m
        # and the Stirling bound t! >= sqrt(2 pi t) (t/e)^t give
        # |B_t|/t! <= 4 (2 pi)^-t for every t >= 0, so the tails are
        # geometric in q = 1/(2 pi alpha) < 1. Parts 3 and 4 shift the
        # Bernoulli index by one, giving the extra (t+1) factor.
        tails = (
            4 * _geometric_power_tail(q, 0, start),
            2 * _geometric_power_tail(q, 2, start),
            mp.mpf(4) / mp.pi * _geometric_power_tail(q, 1, start),
            mp.mpf(2) / mp.pi * _geometric_power_tail(q, 3, start),
        )
        for part, (value, partial, tail) in enumerate(zip(closed, _series_partials(a), tails), 1):
            gap = abs(value - partial)
            # Guard against precision loss in the comparison itself.
            slack = tail + mp.mpf(10) ** (-(_WORK_DPS - 20))
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
    Evaluated at _guarded_dps(alpha) digits, or more if the caller works
    at more.
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(f"need alpha > 1/(2*pi), got {alpha}")
    with mp.workdps(max(mp.mp.dps, _guarded_dps(alpha))):
        a = mp.mpf(alpha)
        p1, p2 = _mean_closed_forms(a, mp.exp(1 / a))
        return a * (1 - p1), a * p2


def asymptotic_variance_c(alpha: float) -> mp.mpf:
    """v with Var(c) = n*v + O(1) at k = alpha*n.

    v(alpha) = e^(1/a) (a^2 e^(2/a) + a^2 - 2 a^2 e^(1/a) - e^(1/a))
               / (a^2 (e^(1/a) - 1)^4)
    at _guarded_dps(alpha) digits, or more if the caller works at more.
    """
    if alpha <= ALPHA_THRESHOLD:
        raise UserInputError(f"need alpha > 1/(2*pi), got {alpha}")
    with mp.workdps(max(mp.mp.dps, _guarded_dps(alpha))):
        a = mp.mpf(alpha)
        e = mp.exp(1 / a)
        return e * (a**2 * e**2 + a**2 - 2 * a**2 * e - e) / (
            a**2 * (e - 1) ** 4
        )


# ---------------------------------------------------------------------------
# Reports


class MomentReport(_Record):
    """Exact moments, with asymptotic companions evaluated on first read.

    The asymptotics are those of c under C(k, scale), shifted by shift.
    The asymptotic fields are None without a scale, or when alpha =
    k/scale does not clear the 1/(2*pi) convergence threshold. error_*
    fields are exact minus asymptotic, as floats, the difference taken
    at enough digits that a double of it is not rounding noise.
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
        if self.scale is None:
            return (None, None, None, None)
        try:
            alpha = self.k / self.scale
        except OverflowError:
            raise UserInputError("--k too large: k/n leaves the double range") from None
        if alpha <= ALPHA_THRESHOLD:
            return (None, None, None, None)
        mean, variance = self.mean_exact, self.variance_exact

        def at(dps: int) -> tuple[float, ...]:
            with mp.workdps(dps):
                m, s = asymptotic_mean_c(alpha)
                ma = self.scale * m + s + self.shift
                va = self.scale * asymptotic_variance_c(alpha)
                return (
                    float(ma),
                    float(va),
                    float(mp.mpf(mean.numerator) / mean.denominator - ma),
                    float(mp.mpf(variance.numerator) / variance.denominator - va),
                )

        # exact - asymptotic cancels the exact values' integer digits, and the
        # coefficients cancel more as alpha grows, so the precision doubles
        # until twice the digits round to the same doubles.
        top = int(max(abs(mean), abs(variance)))
        dps = _guarded_dps(alpha) + len(str(top)) + 17
        values = at(dps)
        while True:
            dps *= 2
            finer = at(dps)
            if finer == values:
                return values
            values = finer

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
