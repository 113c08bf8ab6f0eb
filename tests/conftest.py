"""Shared enumeration oracle for the test suite.

Everything here recomputes statistics and measure weights from first
principles, independently of the package internals: permutations are
plain tuples out of itertools, the statistics are counted with explicit
loops, and the weights come straight from the two binomial formulas.
Expected values frozen into the tests were produced by these helpers.
Two law builders use the package: fraction_pmf puts rational masses
over their lcm, and parsimony_law reads the law table.
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as iter_permutations
from math import comb, lcm

from shufflestats.measures import ExactPmf, riffle_piles, statistic_law


def oracle_descents(word) -> int:
    return sum(1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def oracle_inverse(word) -> tuple[int, ...]:
    """One-line word of the inverse permutation."""
    return tuple(sorted(range(1, len(word) + 1), key=lambda i: word[i - 1]))


def oracle_cyclic_descents(word) -> int:
    return oracle_descents(word) + (1 if word[-1] > word[0] else 0)


@lru_cache(maxsize=None)
def stat_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(descents, cyclic descents) for every word of S_n."""
    return tuple(
        (oracle_descents(w), oracle_cyclic_descents(w))
        for w in iter_permutations(range(1, n + 1))
    )


def oracle_shuffle_weight(k: int, n: int, d: int) -> Fraction:
    return Fraction(comb(n + k - d - 1, n), k**n)


def oracle_cut_weight(k: int, n: int, c: int) -> Fraction:
    return Fraction(comb(n + k - c - 1, n - 1), n * k ** (n - 1))


@lru_cache(maxsize=None)
def stat_pair_counts(n: int) -> Counter:
    """How many words of S_n have each (descents, cyclic descents) pair."""
    return Counter(stat_pairs(n))


def oracle_pmf(family: str, k: int, n: int, statistic: str) -> dict[int, Fraction]:
    """Exact law of d or c under the (family, k, n) measure, by enumeration.

    Every word with the same (d, c) pair has the same weight, so each
    distinct pair is weighted once and multiplied by its word count.
    """
    masses: dict[int, Fraction] = {}
    for (d, c), words in stat_pair_counts(n).items():
        if family == "R":
            weight = oracle_shuffle_weight(k, n, d)
        else:
            weight = oracle_cut_weight(k, n, c)
        value = d if statistic == "d" else c
        masses[value] = masses.get(value, Fraction(0)) + words * weight
    return {v: m for v, m in sorted(masses.items()) if m}


def oracle_parsimony(flavor: str, s: int) -> int:
    """Fewest shuffles r with 2^r >= d+1 (riffle) or 2^r >= c (cut_riffle)."""
    need = s + 1 if flavor == "riffle" else s
    r = 0
    while 2**r < need:
        r += 1
    return r


def oracle_law(measure: str, statistic: str, k: int, n: int) -> dict[int, Fraction]:
    """Exact law of d, c or the parsimony distance, by enumeration."""
    if statistic != "parsimony":
        return oracle_pmf(measure, k, n, statistic)
    read, flavor = ("d", "riffle") if measure == "R" else ("c", "cut_riffle")
    out: dict[int, Fraction] = {}
    for s, m in oracle_pmf(measure, k, n, read).items():
        r = oracle_parsimony(flavor, s)
        out[r] = out.get(r, Fraction(0)) + m
    return out


def oracle_moment(family, k, n, statistic, power) -> Fraction:
    pmf = oracle_pmf(family, k, n, statistic)
    return sum((m * v**power for v, m in pmf.items()), Fraction(0))


def fraction_pmf(pairs) -> ExactPmf:
    """The law of (value, rational mass) pairs, over the lcm of their denominators."""
    pairs = [(v, Fraction(m)) for v, m in pairs]
    den = lcm(*(m.denominator for _, m in pairs))
    return ExactPmf(den, ((v, m.numerator * (den // m.denominator)) for v, m in pairs))


def parsimony_law(measure: str, rounds: int, n: int) -> ExactPmf:
    """Law of the parsimony distance after `rounds` shuffles of n cards."""
    return statistic_law(measure, "parsimony").pmf(riffle_piles(rounds), n)


def pmf_as_dict(pmf) -> dict:
    """Plain dict view of an ExactPmf, for comparison against oracles."""
    return dict(pmf.items())
