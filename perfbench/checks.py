"""Output checks for every benchmark op.

A check returns None when the output is right and a short reason when it
is not. The reasons are counted as failures next to ops that raised or
exited non-zero. The exact-law checks use no code of the program: sums
over a common denominator for "masses add to exactly 1", and the
closed-form means (power sums, by direct summation or through Stirling
numbers of the second kind for large k) for "the pmf mean equals the
moments formula".
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
P_VALUE_FLOOR = 1e-6
_DIRECT_SUM_LIMIT = 1 << 16
FAILURE_TEXT_LIMIT = 160
DIGESTED = ("dist", "eulerian")


@contextmanager
def unlimited_int_text():
    """Parse integers of any length; outputs past 4300 digits are legitimate."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def load_record() -> dict[str, dict[str, str]]:
    """`digests`: stdout SHA-256 per op key; `known_failures`: the failure
    text per op key of the ops that failed when the record was made."""
    return json.loads(DIGESTS_PATH.read_text())


def failure_text(outcome) -> str | None:
    """Why an op produced no output (it raised or exited non-zero), else None."""
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"[:FAILURE_TEXT_LIMIT]
    if isinstance(outcome, tuple) and outcome[0] != 0:
        return f"exit code {outcome[0]}"
    return None


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- closed forms --------------------------------------------------------


@lru_cache(maxsize=None)
def _stirling2_row(p: int) -> tuple[int, ...]:
    row = [1]  # S(0, 0)
    for m in range(1, p + 1):
        nxt = [0] * (m + 1)
        for i in range(1, m + 1):
            nxt[i] = i * (row[i] if i < m else 0) + row[i - 1]
        row = nxt
    return tuple(row)


def power_sum(p: int, a: int) -> int:
    """sum_{r=1}^{a-1} r^p for p >= 1."""
    if a <= _DIRECT_SUM_LIMIT:
        return sum(r**p for r in range(1, a))
    # sum_{r=0}^{a-1} r^p = sum_i S(p, i) i! C(a, i+1)
    total, fact = 0, 1
    for i, s in enumerate(_stirling2_row(p)):
        if i:
            fact *= i
        total += s * fact * math.comb(a, i + 1)
    return total


def mean_c_under_C(k: int, n: int) -> Fraction:
    return k - Fraction(n * power_sum(n - 1, k), k ** (n - 1))


def closed_form_mean(measure: str, stat: str, k: int, n: int) -> Fraction | None:
    """E(stat) under measure(k, n); None where no closed form applies."""
    if (measure, stat) == ("C", "c"):
        return mean_c_under_C(k, n)
    if (measure, stat) == ("C", "d"):
        return Fraction(n - 1, n) * mean_c_under_C(k, n)
    if (measure, stat) == ("R", "d"):
        return mean_c_under_C(k, n + 1) - 1
    return None


# -- pmf text ------------------------------------------------------------


def pmf_rows(text: str, fmt: str) -> list[tuple[int, int, int]]:
    """(value, numerator, denominator) rows of a `dist` output."""
    with unlimited_int_text():
        if fmt == "json":
            rows = []
            for value, mass in json.loads(text).items():
                num, _, den = mass.partition("/")
                rows.append((int(value), int(num), int(den or 1)))
            return rows
        reader = csv.reader(io.StringIO(text))
        if next(reader) != ["value", "numerator", "denominator", "probability"]:
            raise ValueError("bad CSV header")
        return [(int(v), int(num), int(den)) for v, num, den, _ in reader]


def pmf_problem(rows, measure: str, stat: str, k: int, n: int) -> str | None:
    """Masses positive and summing to exactly 1; mean equal to the closed form."""
    if not rows:
        return "empty pmf"
    if any(num <= 0 or den <= 0 for _, num, den in rows):
        return "non-positive mass"
    common = math.lcm(*(den for _, _, den in rows))
    scaled = [(v, num * (common // den)) for v, num, den in rows]
    if sum(m for _, m in scaled) != common:
        return "masses do not sum to 1"
    mean = closed_form_mean(measure, stat, k, n)
    if mean is not None and Fraction(sum(v * m for v, m in scaled), common) != mean:
        return "pmf mean differs from the closed-form mean"
    return None


# -- per-op checks ---------------------------------------------------------


def _fraction(text: str) -> Fraction:
    with unlimited_int_text():
        return Fraction(text)


def check_cli(op, text: str, record: dict) -> str | None:
    """Check the stdout of a CLI op that exited 0.

    A `dist` or `eulerian` op must match its recorded digest. Only an op
    that failed when the record was made has none; if it now produces
    output, the other checks still apply."""
    meta = op.meta
    kind = op.argv[0]
    if kind in DIGESTED:
        expected = record["digests"].get(op.key)
        if expected is None and op.key not in record["known_failures"]:
            return "no recorded digest"
        if expected is not None and digest(text) != expected:
            return "stdout digest differs from the recorded one"
    try:
        if kind == "dist":
            rows = pmf_rows(text, meta["fmt"])
            return pmf_problem(rows, meta["measure"], meta["stat"], meta["k"], meta["n"])
        if kind == "eulerian":
            with unlimited_int_text():
                values = [int(v) for v in json.loads(text)["values"]]
            if sum(values) != math.factorial(meta["n"]):
                return "row does not sum to n!"
            return None
        payload = json.loads(text)
        if kind == "moments":
            mean = closed_form_mean(meta["measure"], meta["stat"], meta["k"], meta["n"])
            if _fraction(payload["mean_exact"]) != mean:
                return "mean_exact differs from the closed-form mean"
            if _fraction(payload["variance_exact"]) < 0:
                return "negative variance"
            return None
        if kind == "tv":
            if not float(payload["tv_exact"]) <= float(payload["bound"]):
                return "tv_exact above the certified bound"
            return None
        if kind in ("sample", "riffle"):
            if sum(payload["histogram"].values()) != meta["count"]:
                return "histogram does not total --count"
            if not float(payload["p_value"]) >= P_VALUE_FLOOR:
                return f"p_value below {P_VALUE_FLOOR}"
            return None
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"[:200]
    return f"no check for {kind}"


def check_api(op, result) -> str | None:
    kind = op.label
    a = op.args
    if kind == "tv_report":
        return None if result.tv_exact <= result.bound else "tv_exact above the certified bound"
    if kind == "solve_stein":
        if result.sup_g() > 1.0 or result.sup_delta_g() > 1.0:
            return "Stein solution bound violated"
        return None if result.max_residual() < 1e-12 else "Stein residual too large"
    if kind in ("exact_statistic_pmf", "d_pmf_C"):
        measure, k, n, stat = a if kind == "exact_statistic_pmf" else ("C", *a, "d")
        rows = [(v, m.numerator, m.denominator) for v, m in result.items()]
        return pmf_problem(rows, measure, stat, k, n)
    if kind in ("moments_c_C", "moments_d_R"):
        k, n = a
        measure, stat = ("C", "c") if kind == "moments_c_C" else ("R", "d")
        if result.mean_exact != closed_form_mean(measure, stat, k, n):
            return "mean_exact differs from the closed-form mean"
        return None if result.variance_exact >= 0 else "negative variance"
    if kind == "PairLaw.build":
        for down, stay, up in zip(result.down, result.stay, result.up):
            if down + stay + up != 1 or min(down, stay, up) < 0:
                return "step law is not a probability vector"
        return None
    if kind == "nogood_diagnostic":
        lo, hi = a
        if [row.n for row in result] != list(range(lo, hi + 1)):
            return "diagnostic rows missing"
        if any(row.value_float < row.lower_bound_float for row in result):
            return "diagnostic below its lower bound"
        return None
    if kind == "run_all":
        failed = [r.name for r in result if not r.passed]
        return f"suites failed: {failed}" if failed else None
    return f"no check for {kind}"
