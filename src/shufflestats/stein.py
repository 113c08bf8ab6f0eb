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
but at a working precision sized to the instance: the recurrence's
homogeneous mode grows like j!/lambda^j, so double precision loses the
bounded solution entirely well before j = 20 at lambda = 1. Extending
the mantissa by log10(j_max!/lambda^j_max) digits keeps the returned
floats correct to ~1e-15. Total variation against Poisson is a sum
over the pmf's range only: the Poisson masses sum to 1, so everything
outside the range is one minus the Poisson mass inside it, and the sum
S has n terms even when k, and with it the range's offset, is far above
n. The sandwich [lo, hi] is the doubles nearest S/2 and S/2 + 10^-28
for S taken exactly, which tv_sandwich forms in fixed point behind
Ziv's rounding test (Ziv, ACM TOMS 17, 1991). It derives the margin a
report on TV should state, which the width hi - lo (0 or one ulp of hi)
does not show: the width check (< 1e-13) can fail only on a NaN, and
stays as the enclosure that later certificates read.

solve_stein runs on the integer kernel below, whose +, -, * and /
each round their exact result once, half to even, as mpmath's libmp
does; so every double out of solve_stein is the one mpf arithmetic
gives (tests/test_stein.py pins it with ==, and tv_sandwich's against
a 40-digit mpf loop). No mpf object or precision context is made: the
steps that are not one operation call libmp at the working precision,
rounding to nearest. They are the rate (from_int and mpf_div, or
from_float), e^(-lambda) (mpf_pow of mpf_e), lambda^a (mpf_pow_int;
exact then rounded only while the mantissa's bits times a stay below
1000), a! (mpf_factorial) and the start value q_s (mpf_exp, mpf_log
and mpf_loggamma).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, exp, expm1, inf, ldexp, lgamma, log, log2
from typing import Iterable, Optional, Union

from .errors import CertificationError, UserInputError, _LazyModule, _Record
from .measures import STATISTIC_LAWS, ExactPmf, StatisticLaw

mp = _LazyModule("mpmath", "mp", globals())

Rational = Union[Fraction, float]

_POISSON_LAWS = {law.poisson: law for law in STATISTIC_LAWS.values() if law.poisson}
STATISTIC_CODES = tuple(_POISSON_LAWS)

_TV_PREC = 136  # 40 digits
_FIX = 192
_SLOP = (1 << _FIX + 1) // 10**28  # 10^-28 floored to units of 2^-(_FIX + 1)
_SANDWICH_LIMIT = 1e-13
_STEIN_BOUND_ALLOWANCE = 1e-12


def _rate(lam: Rational) -> float:
    """float(lam), refused unless 0 < lam < inf (NaN fails the test)."""
    try:
        lam_f = float(lam)
    except OverflowError:
        lam_f = inf
    if not 0 < lam_f < inf:
        raise UserInputError(f"lambda must be positive and finite, got {lam!r}")
    return lam_f


# ---------------------------------------------------------------------------
# Integer kernel: a value is man * 2**exp with a signed int man. Each
# operation forms its exact result (or, for division, a quotient with a
# sticky bit) and rounds it once, half to even at prec bits; a product is
# _round(a * b, ...). Operands carry at most prec + 1 bits, as every
# value the loops below make does.


def _round(man: int, exp: int, prec: int) -> tuple[int, int]:
    """man * 2**exp rounded half to even to at most prec bits (+1 on a carry)."""
    n = man.bit_length() - prec
    if n <= 0:
        return man, exp
    if man < 0:
        t = -man >> (n - 1)
        if t & 1 and (t & 2 or -man & ((1 << (n - 1)) - 1)):
            return -(t >> 1) - 1, exp + n
        return -(t >> 1), exp + n
    t = man >> (n - 1)
    if t & 1 and (t & 2 or man & ((1 << (n - 1)) - 1)):
        return (t >> 1) + 1, exp + n
    return t >> 1, exp + n


def _add(am: int, ae: int, bm: int, be: int, prec: int) -> tuple[int, int]:
    """a + b, rounded.

    When b lies more than prec + 4 bits below a, b only breaks a tie:
    a gets prec + 4 guard bits and b's sign as a sticky 1, as in libmp's
    mpf_add, instead of a shift as long as the exponent gap. That rounds
    right while a has at most prec + 5 bits.
    """
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    shift = ae - be
    if shift > prec + 4:
        if not bm:
            return _round(am, ae, prec)
        if am and am.bit_length() + shift - bm.bit_length() > prec + 4:
            guard = prec + 4
            return _round((am << guard) + (1 if bm > 0 else -1), ae - guard, prec)
    return _round((am << shift) + bm, be, prec)


def _div(man: int, exp: int, den: int, prec: int) -> tuple[int, int]:
    """man * 2**exp / den for an int den > 0, rounded.

    The truncated quotient keeps at least prec + 3 bits; a nonzero
    remainder becomes a sticky 1 below them, which decides ties and
    cannot carry.
    """
    extra = prec + 3 + den.bit_length() - man.bit_length()
    if extra < 0:
        extra = 0
    quot, rem = divmod((-man if man < 0 else man) << extra, den)
    if rem:
        quot = (quot << 1) | 1
        extra += 1
    return _round(-quot if man < 0 else quot, exp - extra, prec)


def _signed(v: tuple) -> tuple[int, int]:
    """A libmp value (sign, man, exp, bc) as the kernel's (man, exp)."""
    return (-v[1] if v[0] else v[1]), v[2]


def _rate_value(lam: Rational, prec: int) -> tuple:
    """lam as a libmp value: a float exactly, else mpf(num) / den rounded at prec bits."""
    lib = mp.libmp
    if isinstance(lam, float):
        return lib.from_float(lam)
    num = lib.from_int(lam.numerator, prec, lib.round_nearest)
    return lib.mpf_div(num, lib.from_int(lam.denominator), prec, lib.round_nearest)


def _exp_neg(lam_v: tuple, prec: int) -> tuple:
    """e^-lam as mpf(e) ** -lam: e rounded to nearest at prec bits, then the power."""
    lib, rnd = mp.libmp, mp.libmp.round_nearest
    return lib.mpf_pow(lib.mpf_e(prec, rnd), lib.mpf_neg(lam_v), prec, rnd)


def _poisson_mass(lam_v: tuple, s: int, prec: int) -> tuple:
    """P(Poisson(lam) = s) as exp(-lam + s log lam - log s!), each step rounded at prec bits."""
    lib, rnd = mp.libmp, mp.libmp.round_nearest
    log_pow = lib.mpf_mul_int(lib.mpf_log(lam_v, prec, rnd), s, prec, rnd)
    log_fac = lib.mpf_loggamma(lib.from_int(s + 1), prec, rnd)
    log_q = lib.mpf_sub(lib.mpf_add(lib.mpf_neg(lam_v), log_pow, prec, rnd), log_fac, prec, rnd)
    return lib.mpf_exp(log_q, prec, rnd)


class SteinSolution(_Record):
    """Solution g of lambda*g(j+1) - j*g(j) = 1{j in A} - P_lambda(A).

    g is tabulated on 0..j_max with g(0) = 0. The classical bounds
    sup|g| <= min(1, lambda^-1/2) and sup|g(j+1) - g(j)| <= (1 - e^-lambda)/lambda
    hold for every instance.
    """

    lam: Rational
    target_set: frozenset[int]
    g: tuple[float, ...]

    def sup_g(self) -> float:
        return max(abs(v) for v in self.g)

    def sup_delta_g(self) -> float:
        return max(
            abs(b - a) for a, b in zip(self.g, self.g[1:])
        )

    def max_residual(self) -> float:
        """Worst |lambda*g(j+1) - j*g(j) - rhs(j)| in double arithmetic."""
        lam, g, target = float(self.lam), self.g, self.target_set
        p_a = sum(exp(-lam + a * log(lam) - lgamma(a + 1)) for a in sorted(target))
        return max(
            abs(lam * b - j * a - ((1.0 if j in target else 0.0) - p_a))
            for j, (a, b) in enumerate(zip(g, g[1:]))
        )


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
    lam_f = _rate(lam)
    amplification = lgamma(j_max + 1) - j_max * log(lam_f)
    dps = 30 + max(0, ceil(amplification / log(10.0)))
    lib, rnd = mp.libmp, mp.libmp.round_nearest
    prec = lib.dps_to_prec(dps)
    lam_v = _rate_value(lam, prec)
    q_m, q_e = _signed(_exp_neg(lam_v, prec))
    lam_m, lam_e = _signed(lam_v)
    p_m, p_e = 0, 0
    for a in sorted(target):
        pow_m, pow_e = _signed(lib.mpf_pow_int(lam_v, a, prec, rnd))
        t_m, t_e = _round(q_m * pow_m, q_e + pow_e, prec)
        fac_m, fac_e = _signed(lib.mpf_factorial(lib.from_int(a), prec, rnd))
        p_m, p_e = _add(p_m, p_e, *_div(t_m, t_e - fac_e, fac_m, prec), prec)
    # 1{j in A} - P(A), indexed by the indicator
    rhs = ((-p_m, p_e), _add(1, 0, -p_m, p_e, prec))
    g_m, g_e = 0, 0
    g = [0.0]
    for j in range(j_max):
        g_m, g_e = _round(g_m * j, g_e, prec)
        g_m, g_e = _add(*rhs[j in target], g_m, g_e, prec)
        g_m, g_e = _div(g_m, g_e - lam_e, lam_m, prec)
        g.append(ldexp(*_round(g_m, g_e, 53)))  # as libmp's to_float
    sol = SteinSolution(lam, target, tuple(g))
    residual = sol.max_residual()
    if residual >= 1e-12:
        raise CertificationError(
            f"Stein residual {residual:.3e} at lambda={lam_f}, j_max={j_max}"
        )
    # Barbour, Holst and Janson (1992), Lemma 1.1.1; the Delta g bound is
    # reached to within rounding, hence the relative allowance.
    g_bound = min(1.0, lam_f**-0.5 * (1 + _STEIN_BOUND_ALLOWANCE))
    dg_bound = min(1.0, -expm1(-lam_f) / lam_f * (1 + _STEIN_BOUND_ALLOWANCE))
    sup_g, sup_dg = sol.sup_g(), sol.sup_delta_g()
    if sup_g > g_bound or sup_dg > dg_bound:
        raise CertificationError(
            f"Stein solution bound violated: sup|g|={sup_g:.6f} "
            f"(bound {g_bound:.6f}), sup|dg|={sup_dg:.6f} "
            f"(bound {dg_bound:.6f}) at lambda={lam_f}"
        )
    return sol


def _sandwich_inputs(pmf: ExactPmf, lam: Rational) -> tuple:
    """lambda and q_s as kernel values at 136 bits, the inputs S is defined from.

    log q_s = -lambda + s log lambda - log s! cancels terms up to about
    x = lambda + s |log2 lambda|, so both are formed with the bits x
    carries past 2^64 added, keeping q_s's relative error near 2^-72,
    and q_s is rounded back to 136 bits. As |log2 lambda| < 2^11 for a
    double, nothing is added unless lambda >= 2^63 or s >= 2^52.
    """
    lam_f = _rate(lam)
    s = pmf.support[0]
    prec = _TV_PREC
    if lam_f >= 2.0**63 or s >= 2**52:
        prec += max(0, (int(lam_f) + s * ceil(abs(log2(lam_f)))).bit_length() - 64)
    lam_v = _rate_value(lam, prec)
    q_m, q_e = _signed(_poisson_mass(lam_v, s, prec))
    return _signed(lam_v), _round(q_m, q_e, _TV_PREC)


def _fixed_sum(pmf: ExactPmf, lam: tuple, q: tuple) -> Optional[int]:
    """S in units of 2^-F, F = _FIX, or None unless sum_j q_j < 2.

    With G = F + 64, p_j is ((a_j >> t) * R) >> G from one reciprocal
    R = 2^(F+G) // (den >> t), t = max(0, bits(den) - G), so no atom
    divides by den. q_j keeps a G-bit mantissa and an exponent of its
    own: each step multiplies by lambda's mantissa (widened to 64 bits
    past the largest divisor), floor-divides by j + 1, truncates back to
    G bits, and the sum takes q_j floored to units. Once q_j floors to
    0 with j + 1 >= lambda, every later q_j is smaller still, and the
    rest of the sum adds p_j alone. Nothing is rounded; tv_sandwich
    bounds what the truncations lose (_sum_error).
    """
    F, G = _FIX, _FIX + 64
    s, top = pmf.support[0], pmf.support[-1]
    lam_m, lam_e = lam
    # 64 bits past the largest divisor, so each quotient keeps G + 62 bits
    shift = max(0, 64 + (top + 1).bit_length() - lam_m.bit_length())
    lam_m, lam_e = lam_m << shift, lam_e - shift
    q_m, q_e = q
    shift = G - q_m.bit_length()
    q_m, down = q_m << shift, shift - q_e - F  # q_j is (q_m >> down) units
    den = pmf.den
    t = max(0, den.bit_length() - G)
    recip = (1 << F + G) // (den >> t)
    p = [0] * (top - s + 1)
    for j, a in zip(pmf.support, pmf.nums):
        p[j - s] = (a >> t) * recip >> G
    mode = -(-lam_m >> -lam_e) if lam_e < 0 else lam_m << lam_e  # ceil(lambda)
    acc, q_sum = 1 << F, 0
    for j, p_j in enumerate(p, s + 1):
        if down < 0:  # q_j >= 2^63: q_s is no Poisson mass
            return None
        q_j = q_m >> down
        if not q_j and j >= mode:  # every later q_j is smaller: below one unit
            acc += sum(p[j - s - 1:])
            break
        acc += abs(p_j - q_j) - q_j
        q_sum += q_j
        x = q_m * lam_m // j
        shift = x.bit_length() - G
        q_m, down = x >> shift, down - shift - lam_e
    return acc if q_sum <= 3 << F - 1 else None


def _sum_error(atoms: int) -> int:
    """|_fixed_sum - 2^F S| at most, in units of 2^-F, F = _FIX: 8 an atom."""
    return 8 * atoms


def _exact_sum(pmf: ExactPmf, lam: tuple, q: tuple) -> Fraction:
    """S = 1 + sum_{j=s}^{t} (|p_j - q_j| - q_j), exactly, in Fractions.

    tv_sandwich comes here only if some q_j reaches min(1/den, 2^-56/N),
    as S/2 is otherwise within 2^-56 of 1 and both Ziv tests pass; so
    -log2 q_s <= bits(den) + 56 + N (1 + log2 max(1, lambda)).
    """
    rate, q_j = (Fraction(m) * Fraction(2) ** e for m, e in (lam, q))
    num = dict(zip(pmf.support, pmf.nums))
    acc = Fraction(1)
    for j in range(pmf.support[0], pmf.support[-1] + 1):
        acc += abs(Fraction(num.get(j, 0), pmf.den) - q_j) - q_j
        q_j = q_j * rate / (j + 1)
    return acc


def _ziv(mid: int, err: int, frac: int) -> Optional[float]:
    """The one double that all of [mid - err, mid + err] * 2^-frac round to, if any."""
    lo = ldexp(*_round(mid - err, -frac, 53))
    return lo if lo == ldexp(*_round(mid + err, -frac, 53)) else None


def tv_sandwich(pmf: ExactPmf, lam: Rational) -> tuple[float, float]:
    """Lower and upper enclosure of TV(pmf, Poisson(lambda)).

    TV is half the L1 distance. Off the pmf's range [s, t] every term
    |p_j - q_j| is the Poisson mass q_j, and the q_j sum to 1, so

        sum_j |p_j - q_j| = 1 + sum_{j=s}^{t} (|p_j - q_j| - q_j) = S,

    over N = t - s + 1 atoms, exact over p_j = a_j / den and q_{j+1} =
    q_j lambda / (j + 1) from _sandwich_inputs' rounded lambda and q_s.
    lo and hi are the doubles nearest S/2 and S/2 + 10^-28.

    _fixed_sum forms S in units of 2^-192: p_j errs by under 3 units;
    q_j, i steps from q_s, by under 1 + 2i 2^-62 while every q_j < 2,
    which it checks; so acc errs by under 5 + 4i 2^-62 an atom, at most
    8N for N below 2^60 (_sum_error). Ziv's test: if acc - 8N and
    acc + 8N, halved, round to the same double, so does S/2, and that is
    lo; hi likewise, on acc/2 plus 10^-28 floored to units of 2^-193,
    with one unit more error. Doubles are compared, not (man, exp)
    pairs, as 1.0 has two. If a test fails or _fixed_sum declines,
    _exact_sum forms S for float(): 1.1 s on the default grid, not 9 ms.

    The margin: the fixed-point sum puts TV = S/2 within 8N 2^-193
    (2e-55 at N = 5000), and S/2 is off the true TV by at most
    sum_j |dq_j|, q_j's error from the rounding of lambda and q_s.
    """
    lam_v, q = _sandwich_inputs(pmf, lam)
    acc = _fixed_sum(pmf, lam_v, q)
    if acc is not None:
        err = _sum_error(pmf.support[-1] - pmf.support[0] + 1)
        lo = _ziv(acc, err, _FIX + 1)
        hi = _ziv(acc + _SLOP, err + 1, _FIX + 1)
        if lo is not None and hi is not None:
            return lo, hi
    half = _exact_sum(pmf, lam_v, q) / 2
    return float(half), float(half + Fraction(1, 10**28))


def tv_exact_vs_poisson(pmf: ExactPmf, lam: Rational) -> float:
    """TV distance to Poisson(lambda), certified to sandwich width 1e-13."""
    lo, hi = tv_sandwich(pmf, lam)
    if not hi - lo < _SANDWICH_LIMIT:  # written so that a NaN width fails
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


class TvReport(_Record):
    """One certified comparison of an exact law against its Poisson limit."""

    k: int
    n: int
    statistic: str
    lam: float
    tv_exact: float
    bound: float
    slack: float


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
    A bound past the double range is refused before the law is built.
    """
    try:
        bound = float(certified_bound(k, n, statistic))
    except OverflowError:
        raise UserInputError("--k too large: the bound (k/m)^2 leaves the double range") from None
    pmf, lam = statistic_pushforward(k, n, statistic)
    tv = tv_exact_vs_poisson(pmf, lam)
    slack = bound - tv
    if slack < 0:
        raise CertificationError(
            f"certified bound failed: statistic {statistic} k={k} n={n} "
            f"tv={tv!r} bound={bound!r}"
        )
    return TvReport(
        k=k,
        n=n,
        statistic=statistic,
        lam=float(lam),
        tv_exact=tv,
        bound=bound,
        slack=slack,
    )


def sweep_k_values(n: int, points: int) -> list[int]:
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
    n_list: Iterable[int], k_points: int, statistics: Iterable[str]
) -> list[TvReport]:
    """tv_report over the full certification grid; raises on any failure."""
    reports = []
    for n in n_list:
        for k in sweep_k_values(n, k_points):
            for stat in statistics:
                reports.append(tv_report(k, n, stat))
    return reports
