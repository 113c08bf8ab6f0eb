"""The cyclic-rotation exchangeable pair and its regression diagnostics.

Draw pi from a rotation-invariant measure and let pi' be a uniformly
random cyclic rotation of it. Writing d = d(pi) and d' = d(pi'), the
pair (d, d') is exchangeable and d' - d is confined to {-1, 0, +1}.
Normalizing W = (d - E(d)) / sqrt(Var(d)) gives a pair satisfying

    E(W' | W) = (1 - 1/n) W + G(W)

PairLaw holds the exact step law of the pair under C(k, n) or the
uniform measure U_n, and g_remainder computes G exactly under U_n. The
headline diagnostic: under U_n, n * E|G(W)| stays bounded away from
zero, which is exactly the failure mode for the standard regression
hypothesis of exchangeable-pair normal approximation. Everything here
is exact rational arithmetic times at most one square root, carried
symbolically until the final float rendering.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .errors import CertificationError, UserInputError, _Record
from .eulerian import eulerian_row, eulerian_value
from .measures import ExactPmf, c_pmf_C, c_pmf_uniform, d_pmf_C, d_pmf_uniform
from .permutations import cyclic_rotate, descent_count

# Highest n_hi of nogood_diagnostic. On a 2-vCPU machine `diagnostic`
# over 4..200 runs in about 0.4 s as one CLI process; 4..400 takes about
# 2.1 s in-process.
DIAGNOSTIC_N_MAX = 200


def _wraps_down(p: tuple[int, ...]) -> bool:
    """chi_n(pi): position n is a cyclic descent, i.e. pi(n) > pi(1)."""
    return p[-1] > p[0]


def rotation_conditional_law(p: tuple[int, ...]) -> ExactPmf:
    """Exact law of d' = d(rotation of p), uniform over the n rotations.

    Computed two ways and cross-checked on every call: by enumerating
    all n rotations, and by the closed form (up-step probability
    (n-1-d)/n when position n wraps down, down-step probability d/n
    when it does not). The measure on pi never enters; rotation is
    uniform regardless, which is why this takes no k.
    """
    n = len(p)
    if n < 2:
        raise UserInputError("the rotation pair needs n >= 2")
    counts: dict[int, int] = {}
    for s in range(n):
        dv = descent_count(cyclic_rotate(p, s))
        counts[dv] = counts.get(dv, 0) + 1
    enumerated = ExactPmf(n, counts.items())

    d = descent_count(p)
    if _wraps_down(p):
        closed = ExactPmf(n, [(d, d + 1), (d + 1, n - 1 - d)])
    else:
        closed = ExactPmf(n, [(d - 1, d), (d, n - d)])
    if enumerated != closed:
        raise CertificationError(
            f"rotation law mismatch for {' '.join(map(str, p))}: {enumerated!r} vs {closed!r}"
        )
    return enumerated


def drift(p: tuple[int, ...]) -> Fraction:
    """E(d' - d | pi) = -d/n + (n-1)/n * [position n wraps down]."""
    n = len(p)
    if n < 2:
        raise UserInputError("the rotation pair needs n >= 2")
    d = descent_count(p)
    out = Fraction(-d, n)
    if _wraps_down(p):
        out += Fraction(n - 1, n)
    law = rotation_conditional_law(p)
    if law.mean() - d != out:
        raise CertificationError(f"drift mismatch for {' '.join(map(str, p))}")
    return out


class PairLaw(_Record):
    """Exact step law of the pair: per conditioning value r, P(d = r)
    and the probabilities of d' - d = -1, 0, +1."""

    support: tuple[int, ...]
    d_mass: tuple[Fraction, ...]
    down: tuple[Fraction, ...]
    stay: tuple[Fraction, ...]
    up: tuple[Fraction, ...]

    @classmethod
    def build(cls, n: int, k: Optional[int]) -> "PairLaw":
        """Step law under C(k, n), or under the uniform measure if k is None.

        Each step is summed from the c law's numerators. The mass
        P(c = r+1)(r+1)/n at d = r wraps down: it steps up with
        probability (n-1-r)/n and stays with (r+1)/n. The mass
        P(c = r)(n-r)/n does not wrap: it steps down with r/n and stays
        with (n-r)/n. So the steps out of d = r sum to one exactly when
        the d law is the rotation pushforward of the c law.
        """
        if k is None:
            d_pmf, c_pmf = d_pmf_uniform(n), c_pmf_uniform(n)
        else:
            d_pmf, c_pmf = d_pmf_C(k, n), c_pmf_C(k, n)
        c = dict(zip(c_pmf.support, c_pmf.nums))
        down, stay, up = [], [], []
        for r, a in zip(d_pmf.support, d_pmf.nums):
            wrap, rest = c.get(r + 1, 0) * (r + 1), c.get(r, 0) * (n - r)
            den = n * n * c_pmf.den * a
            down.append(Fraction(rest * r * d_pmf.den, den))
            stay.append(Fraction((wrap * (r + 1) + rest * (n - r)) * d_pmf.den, den))
            up.append(Fraction(wrap * (n - 1 - r) * d_pmf.den, den))
        d_mass = tuple(m for _, m in d_pmf.items())
        law = cls(d_pmf.support, d_mass, tuple(down), tuple(stay), tuple(up))
        law._check_exchangeable()
        return law

    def _check_exchangeable(self) -> None:
        steps = tuple(zip(self.support, self.d_mass, self.down, self.stay, self.up))
        for r, _, down, stay, up in steps:
            total = down + stay + up
            if total != 1:
                raise CertificationError(f"conditional law at r={r} sums to {total}")
            if min(down, stay, up) < 0:
                raise CertificationError(f"negative step probability at r={r}")
        # P(d = r, d' = r+1) against P(d = r+1, d' = r)
        falls = {r: p * down for r, p, down, _, _ in steps}
        for r, p, _, _, up in steps:
            if p * up != falls.get(r + 1, 0):
                raise CertificationError(f"joint law not exchangeable at ({r}, {r + 1})")


# ---------------------------------------------------------------------------
# The G remainder of the normalized pair under the uniform measure


def g_remainder(n: int) -> Fraction:
    """The aggregate E|G(W)| under the uniform measure U_n, exact.

    G(r) = E(W' - W | d = r) + W(r)/n, and with E(d) = (n-1)/2,
    n sqrt(Var(d)) G(r) = P(c=r+1)(r+1)(n-1) / (n P(d=r)) - (n-1)/2.
    It returns abs_g_scaled = E|G(W)| sqrt(Var(d)), Var(d) = (n+1)/12:
    abs_g_scaled = sum_r |P(c=r+1)(r+1)(n-1)/n - P(d=r)(n-1)/2| / n.
    A second simplification, through the cyclic pmf alone, must agree.
    (Under C(k, n), sqrt(Var(d)) G(r) = up_r - down_r + (r - E d)/n on
    the PairLaw step law.)
    """
    if n < 2:
        raise UserInputError("need n >= 2")
    d_pmf, c_pmf = d_pmf_uniform(n), c_pmf_uniform(n)
    # Downstream trusts E(W) = 0 and E(W^2) = 1; this check makes them exact.
    if d_pmf.mean() != Fraction(n - 1, 2) or d_pmf.variance() != Fraction(n + 1, 12):
        raise CertificationError(f"moment/pmf disagreement at n={n}")
    c, c_den, d_den = dict(zip(c_pmf.support, c_pmf.nums)), c_pmf.den, d_pmf.den
    # Each term times 2 n c_den d_den / (n-1), an integer.
    total = sum(
        abs(2 * d_den * (r + 1) * c.get(r + 1, 0) - n * c_den * a)
        for r, a in zip(d_pmf.support, d_pmf.nums)
    )
    abs_g_scaled = Fraction((n - 1) * total, 2 * n * n * c_den * d_den)
    # E(d) = (n-1)/2 also collapses the aggregate to
    # ((n-1)/(2 n^2)) sum_r |(r+1)P(c=r+1)-(n-r)P(c=r)|.
    alt = sum(abs((r + 1) * c.get(r + 1, 0) - (n - r) * c.get(r, 0)) for r in d_pmf.support)
    alt = Fraction((n - 1) * alt, 2 * n * n * c_den)
    if alt != abs_g_scaled:
        raise CertificationError(
            f"uniform G aggregate simplification mismatch at n={n}: "
            f"{abs_g_scaled} vs {alt}"
        )
    return abs_g_scaled


# ---------------------------------------------------------------------------
# Newton inequalities on Eulerian rows


class NewtonRecord(_Record):
    n_max: int
    cases: int
    equality_points: tuple[tuple[int, int], ...]


def newton_check(n_max: int) -> NewtonRecord:
    """Exhaustively verify the two-sided Eulerian inequality criterion.

    For 3 <= n <= n_max and 0 <= r <= n-1, the inequality
    (r+1) A[n-1][r+1] >= (n-r) A[n-1][r] holds iff r <= (n-1)/2 for odd
    n, iff r <= n/2 - 1 for even n; outside that range it fails
    strictly. Exact integer arithmetic throughout.
    """
    if n_max < 3:
        raise UserInputError("n_max must be >= 3")
    cases = 0
    equalities = []
    for n in range(3, n_max + 1):
        cutoff = (n - 1) // 2 if n % 2 else n // 2 - 1
        row = (0,) + eulerian_row(n - 1) + (0,)  # row[r] = A(n-1, r), 0 <= r <= n
        for r in range(n):
            lhs = (r + 1) * row[r + 1]
            rhs = (n - r) * row[r]
            holds = lhs >= rhs
            if holds != (r <= cutoff):
                raise CertificationError(
                    f"Newton criterion wrong at n={n}, r={r}: "
                    f"{lhs} vs {rhs}, cutoff {cutoff}"
                )
            if holds and lhs == rhs:
                equalities.append((n, r))
            cases += 1
    return NewtonRecord(n_max, cases, tuple(equalities))


# ---------------------------------------------------------------------------
# The "bounded away from zero" diagnostic


def central_eulerian_ratio(n: int) -> Fraction:
    """A[n-1][ceil((n-1)/2)] / (n-1)!, the central Eulerian mass."""
    if n < 2:
        raise UserInputError("need n >= 2")
    return Fraction(eulerian_value(n - 1, n // 2), math.factorial(n - 1))


def mean_abs_deviation_uniform_d(n: int) -> Fraction:
    """E|d - E(d)| under the uniform measure on S_n, exact."""
    pmf = d_pmf_uniform(n)
    atoms, den = tuple(zip(pmf.support, pmf.nums)), pmf.den
    s1 = sum(r * a for r, a in atoms)  # E(d) = s1 / den
    return Fraction(sum(a * abs(r * den - s1) for r, a in atoms), den * den)


class NogoodRow(_Record):
    """One row of the diagnostic: how big n * E|G(W)| stays under U_n."""

    n: int
    value_scaled: Fraction  # Q with n * E|G| = Q / sqrt(var)
    var_d: Fraction
    value_float: float
    lower_bound_float: float


def nogood_diagnostic(n_lo: int, n_hi: int) -> list[NogoodRow]:
    """Tabulate n * E|G(W)| under U_n against its proven lower bound.

    The lower bound is (n-1)/(n sqrt(Var_n)) * (B - sqrt(Var'_{n-1}))
    with B = (n+1)/2 * A[n-1][(n-1)/2] / (2 (n-1)!) for odd n and
    B = n * A[n-1][n/2] / (2 (n-1)!) for even n, Var_m = (m+1)/12.
    Domination is decided exactly: value >= bound reduces to comparing
    one rational against one square root, settled in squared form. For
    odd n the proof's intermediate identity (through the mean absolute
    deviation of d on S_{n-1}) is also checked exactly.
    """
    if n_lo < 3 or n_hi < n_lo:
        raise UserInputError("need 3 <= n_lo <= n_hi")
    if n_hi > DIAGNOSTIC_N_MAX:
        raise UserInputError(f"--n-hi must be at most {DIAGNOSTIC_N_MAX}, got {n_hi}")
    rows = []
    for n in range(n_lo, n_hi + 1):
        abs_g_scaled = g_remainder(n)
        var_n = Fraction(n + 1, 12)  # Var under U_n, certified by g_remainder
        q_scaled = n * abs_g_scaled  # n*E|G| = q_scaled / sqrt(var_n)

        if n % 2:
            b_term = Fraction(n + 1, 4) * central_eulerian_ratio(n)
            # Exact identity from the proof chain, odd n only:
            # E|G| = (n-1)/(n^2 sqrt(var)) ((n+1)/2 A/(n-1)! - MAD(n-1))
            mad = mean_abs_deviation_uniform_d(n - 1)
            ident = Fraction(n - 1, n * n) * (2 * b_term - mad)
            if ident != abs_g_scaled:
                raise CertificationError(
                    f"odd-n aggregate identity failed at n={n}: {abs_g_scaled} vs {ident}"
                )
        else:
            b_term = Fraction(n, 2) * central_eulerian_ratio(n)
        var_prev = Fraction(n, 12)  # Var under U_{n-1}
        # Dominance: q_scaled/sqrt(var_n) >= ((n-1)/(n sqrt(var_n)))
        #            * (b_term - sqrt(var_prev))
        # <=> b_term - q_scaled n/(n-1) <= sqrt(var_prev), exact.
        gap = b_term - q_scaled * Fraction(n, n - 1)
        dominated = gap <= 0 or gap * gap <= var_prev
        if not dominated:
            raise CertificationError(
                f"diagnostic fell below the proven lower bound at n={n}"
            )
        sqrt_var = math.sqrt(float(var_n))
        value_float = float(q_scaled) / sqrt_var
        lower_float = (
            (n - 1) / n * (float(b_term) - math.sqrt(float(var_prev))) / sqrt_var
        )
        if value_float <= 0:
            raise CertificationError(f"diagnostic not positive at n={n}")
        rows.append(
            NogoodRow(
                n=n,
                value_scaled=q_scaled,
                var_d=var_n,
                value_float=value_float,
                lower_bound_float=lower_float,
            )
        )
    return rows
