"""The cyclic-rotation exchangeable pair and its regression diagnostics.

Draw pi from a rotation-invariant measure and let pi' be a uniformly
random cyclic rotation of it. Writing d = d(pi) and d' = d(pi'), the
pair (d, d') is exchangeable and d' - d is confined to {-1, 0, +1}.
Normalizing W = (d - E(d)) / sqrt(Var(d)) gives a pair satisfying

    E(W' | W) = (1 - 1/n) W + G(W)

and this module computes G exactly. The headline diagnostic: under the
uniform measure, n * E|G(W)| stays bounded away from zero, which is
exactly the failure mode for the standard regression hypothesis of
exchangeable-pair normal approximation. Everything here is exact
rational arithmetic times at most one square root, carried symbolically
until the final float rendering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import CertificationError, UserInputError
from .eulerian import eulerian_row, eulerian_value
from .measures import (
    ExactPmf,
    c_pmf_C,
    c_pmf_uniform,
    d_pmf_C,
    d_pmf_uniform,
)
from .moments import moments_d_C
from .permutations import cyclic_rotate, descent_count

_ZERO = Fraction(0)
# Highest n_hi of nogood_diagnostic. On a 2-vCPU machine `diagnostic`
# over 4..200 runs in about 2.7 s as one CLI process; 4..400 took 19.7 s.
DIAGNOSTIC_N_MAX = 200


def _d_and_c_pmfs(n: int, k: Optional[int]) -> tuple[ExactPmf, ExactPmf]:
    """Laws of d and c under C(k, n), or under the uniform measure if k is None."""
    if k is None:
        return d_pmf_uniform(n), c_pmf_uniform(n)
    return d_pmf_C(k, n), c_pmf_C(k, n)


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


@dataclass(frozen=True)
class PairLaw:
    """Exact step law of the pair: per conditioning value r, P(d = r)
    and the probabilities of d' - d = -1, 0, +1."""

    k: Optional[int]
    n: int
    support: tuple[int, ...]
    d_mass: tuple[Fraction, ...]
    down: tuple[Fraction, ...]
    stay: tuple[Fraction, ...]
    up: tuple[Fraction, ...]

    @classmethod
    def build(cls, n: int, k: Optional[int]) -> "PairLaw":
        """Step law under C(k, n), or under the uniform measure if k is None."""
        d_pmf, c_pmf = _d_and_c_pmfs(n, k)
        down, stay, up = [], [], []
        for r, p_r in d_pmf.items():
            # P(d = r and the wrap is a cyclic descent) = P(c = r+1)(r+1)/n
            j_up = c_pmf.prob(r + 1) * Fraction(r + 1, n) * Fraction(n - 1 - r, n)
            j_down = c_pmf.prob(r) * Fraction(n - r, n) * Fraction(r, n)
            u = j_up / p_r
            dn = j_down / p_r
            down.append(dn)
            stay.append(1 - u - dn)
            up.append(u)
        law = cls(k, n, d_pmf.support, d_pmf.mass, tuple(down), tuple(stay), tuple(up))
        law._check_exchangeable()
        return law

    def joint(self, a: int, b: int) -> Fraction:
        """P(d = a, d' = b), exact."""
        try:
            i = self.support.index(a)
        except ValueError:
            return _ZERO
        p_a = self.d_mass[i]
        if b == a - 1:
            return p_a * self.down[i]
        if b == a:
            return p_a * self.stay[i]
        if b == a + 1:
            return p_a * self.up[i]
        return _ZERO

    def _check_exchangeable(self) -> None:
        for i, r in enumerate(self.support):
            total = self.down[i] + self.stay[i] + self.up[i]
            if total != 1:
                raise CertificationError(
                    f"conditional law at r={r} sums to {total}"
                )
            if self.down[i] < 0 or self.stay[i] < 0 or self.up[i] < 0:
                raise CertificationError(f"negative step probability at r={r}")
        for r in self.support:
            if self.joint(r, r + 1) != self.joint(r + 1, r):
                raise CertificationError(
                    f"joint law not exchangeable at ({r}, {r + 1})"
                )


# ---------------------------------------------------------------------------
# Conditional drift of the normalized pair and the G remainder


def _pmfs_and_moments(
    n: int, k: Optional[int]
) -> tuple[ExactPmf, ExactPmf, Fraction, Fraction]:
    if n < 2:
        raise UserInputError("need n >= 2")
    d_pmf, c_pmf = _d_and_c_pmfs(n, k)
    if k is None:
        mean_d = Fraction(n - 1, 2)
        var_d = Fraction(n + 1, 12)
    else:
        report = moments_d_C(k, n)
        mean_d, var_d = report.mean_exact, report.variance_exact
    # Downstream trusts E(W) = 0 and E(W^2) = 1; this check makes them exact.
    if d_pmf.mean() != mean_d or d_pmf.variance() != var_d:
        raise CertificationError(
            f"moment/pmf disagreement at n={n}, k={k}"
        )
    return d_pmf, c_pmf, mean_d, var_d


def _g_numerator(
    c_pmf: ExactPmf, d_pmf: ExactPmf, mean_d: Fraction, n: int, r: int
) -> Fraction:
    """G(r) * n * sqrt(Var(d)), an exact rational."""
    p_r = d_pmf.prob(r)
    if not p_r:
        raise UserInputError(f"conditioning on zero-probability d={r}")
    return c_pmf.prob(r + 1) * Fraction((r + 1) * (n - 1), n) / p_r - mean_d


@dataclass(frozen=True)
class NormalizedPair:
    """W-normalized pair data: exact moments and G per r.

    G_values pairs each descent value r with the float G(r). The exact
    aggregate E|G(W)| is abs_g_scaled / sqrt(var_d).
    """

    mean_d: Fraction
    var_d: Fraction
    G_values: tuple[tuple[int, float], ...]
    abs_g_scaled: Fraction


def g_remainder(n: int, k: Optional[int] = None) -> NormalizedPair:
    """G(W) data under C(k, n), or under the uniform measure for k=None.

    G(r) = E(W' - W | d = r) + W(r)/n; the aggregate E|G(W)| is carried
    exactly as abs_g_scaled * Var(d)^(-1/2). In uniform mode the two
    displayed simplifications of the aggregate (through P(d = r) and
    through the cyclic pmf alone) are both evaluated and must agree.
    """
    d_pmf, c_pmf, mean_d, var_d = _pmfs_and_moments(n, k)
    sqrt_v = math.sqrt(float(var_d))
    g_vals = []
    agg = _ZERO
    for r in d_pmf.support:
        num = _g_numerator(c_pmf, d_pmf, mean_d, n, r)
        g_vals.append((r, float(num) / (n * sqrt_v)))
        agg += d_pmf.prob(r) * abs(num)
    abs_g_scaled = agg / n

    if k is None:
        # Uniform-measure simplification: E(d) = (n-1)/2 collapses the
        # aggregate to ((n-1)/(2 n^2)) sum_r |(r+1)P(c=r+1)-(n-r)P(c=r)|.
        alt = sum(
            (
                abs(
                    (r + 1) * c_pmf.prob(r + 1) - (n - r) * c_pmf.prob(r)
                )
                for r in d_pmf.support
            ),
            _ZERO,
        ) * Fraction(n - 1, 2 * n * n)
        if alt != abs_g_scaled:
            raise CertificationError(
                f"uniform G aggregate simplification mismatch at n={n}: "
                f"{abs_g_scaled} vs {alt}"
            )
    return NormalizedPair(
        mean_d=mean_d,
        var_d=var_d,
        G_values=tuple(g_vals),
        abs_g_scaled=abs_g_scaled,
    )


# ---------------------------------------------------------------------------
# Newton inequalities on Eulerian rows


@dataclass(frozen=True)
class NewtonRecord:
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
    mu = pmf.mean()
    return sum((pmf.prob(r) * abs(r - mu) for r in pmf.support), _ZERO)


@dataclass(frozen=True)
class NogoodRow:
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
        pair = g_remainder(n, k=None)
        var_n = pair.var_d
        if var_n != Fraction(n + 1, 12):
            raise CertificationError(f"Var under U_{n} is {var_n}, not (n+1)/12")
        q_scaled = n * pair.abs_g_scaled  # n*E|G| = q_scaled / sqrt(var_n)

        if n % 2:
            b_term = Fraction(n + 1, 2) * Fraction(
                eulerian_value(n - 1, (n - 1) // 2), 2 * math.factorial(n - 1)
            )
            # Exact identity from the proof chain, odd n only:
            # E|G| = (n-1)/(n^2 sqrt(var)) ((n+1)/2 A/(n-1)! - MAD(n-1))
            mad = mean_abs_deviation_uniform_d(n - 1)
            ident = Fraction(n - 1, n * n) * (2 * b_term - mad)
            if ident != pair.abs_g_scaled:
                raise CertificationError(
                    f"odd-n aggregate identity failed at n={n}: "
                    f"{pair.abs_g_scaled} vs {ident}"
                )
        else:
            b_term = Fraction(
                n * eulerian_value(n - 1, n // 2), 2 * math.factorial(n - 1)
            )
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
