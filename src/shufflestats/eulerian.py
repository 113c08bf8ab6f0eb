"""Exact Eulerian rows, computed on demand, and cyclic descent counts.

A(n, k) counts permutations of n symbols with exactly k-1 descents
(1 <= k <= n). A caller that reads only the first K columns of a row
(the R and C laws read min(n, k)) asks for that prefix: up to n/8
columns come from the explicit alternating sum, wider ones from the
whole row by the recurrence. Everything here is arbitrary-precision
integer arithmetic; no value in this module is ever a float.
"""

from __future__ import annotations

import threading
from math import factorial, isqrt
from operator import mul
from typing import Iterator, Optional

from .errors import UserInputError

# Cells of recent rows kept (one pass of a benchmark workload uses at most
# about 6,200); the last two rows made are kept whatever their size.
_KEEP_CELLS = 1 << 14

# Prefixes up to n / _PREFIX_DIVISOR wide come from the explicit sum. On a
# 2-vCPU machine (Python 3.11) a prefix of n/8 columns costs 0.12 of the
# whole row at n = 2,000 and 0.27 at n = 4,000, and n/5 columns about
# equal it there; the share grows about like n^0.6.
_PREFIX_DIVISOR = 8
# Bits of powers _powers keeps as cofactors (32 MB).
_TABLE_BITS = 1 << 28

_lock = threading.Lock()
_kept: dict[int, tuple[int, ...]] = {}  # n -> row n, least recently used first


def _next_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """Row n from row n-1 by A(n, k) = k A(n-1, k) + (n-k+1) A(n-1, k-1).

    The recurrence is exact and has no alternating signs, unlike the
    summation formula. Rows are palindromes, so only the first half is
    computed.
    """
    n = len(row) + 1
    half = [
        k * a + (n + 1 - k) * b
        for k, a, b in zip(range(1, (n + 1) // 2 + 1), row, (0,) + row)
    ]
    return tuple(half + half[n // 2 - 1 :: -1])


def _powers(p: int, a: int) -> Iterator[int]:
    """Yield r**p for r = 0, 1, ..., a-1 (0**0 = 1), calling pow only at primes.

    r -> r**p is completely multiplicative, so a composite r with least
    prime factor q, found through a smallest-prime-factor sieve, costs
    one product q**p * (r/q)**p of two earlier powers, or a shift of
    (r/2)**p by p bits when q = 2. Powers of r < a/2 (every cofactor)
    are kept, up to _TABLE_BITS bits; past what they cover, r**p comes
    from pow.
    """
    half = min((a + 1) // 2, 1 + _TABLE_BITS // (max(p, 1) * max(a.bit_length(), 1)))
    top = min(a, 2 * half)
    # Descending q: a smaller prime overwrites the mark of any larger q, so
    # each composite ends up with its least prime factor, primes with 0.
    spf = [0] * top
    for q in range(isqrt(top - 1) if top > 1 else 1, 1, -1):
        spf[q * q :: q] = [q] * len(range(q * q, top, q))
    kept: list[int] = []
    for r in range(a):
        q = spf[r] if r < top else 0
        if q == 2:
            power = kept[r >> 1] << p
        elif q:
            power = kept[q] * kept[r // q]
        else:
            power = pow(r, p)
        if r < half:
            kept.append(power)
        yield power


def _row_prefix(n: int, width: int) -> tuple[int, ...]:
    """(A(n, 1), ..., A(n, width)) by A(n, m) = sum_{j<m} (-1)^j C(n+1, j) (m-j)^n.

    The explicit sum needs no earlier row: width columns cost about
    width^2 / 2 big products, against about n^2 / 4 for the whole row.
    Columns of row n already kept are reused, so a rising sweep of
    widths sums each column once. Called with _lock held.
    """
    head = _kept.get(n, ())[:width]
    powers = list(_powers(n, width + 1))
    signed = [1]
    for j in range(1, width):
        signed.append(-signed[-1] * (n + 2 - j) // j)
    return head + tuple(
        sum(map(mul, signed[:m], powers[m:0:-1])) for m in range(len(head) + 1, width + 1)
    )


def eulerian_row(n: int, width: Optional[int] = None) -> tuple[int, ...]:
    """Row n of the Eulerian triangle, (A(n, 1), ..., A(n, n)), or its first width entries.

    A kept row at least width wide is sliced. Otherwise a prefix with
    width <= n / _PREFIX_DIVISOR comes from the explicit sum (_row_prefix),
    extending a narrower kept prefix, and is kept; any wider request
    builds the whole row, stepped up
    from the nearest whole row kept below it (row 1 if none), and row
    n-1 is kept along with it, so a rising sweep costs one recurrence
    step per row.

    >>> eulerian_row(3)
    (1, 4, 1)
    >>> eulerian_row(4)
    (1, 11, 11, 1)
    >>> eulerian_row(5, 2)
    (1, 26)
    """
    if n < 1:
        raise UserInputError(f"Eulerian rows need n >= 1, got n = {n}")
    if width is None or width > n:
        width = n
    elif width < 1:
        raise UserInputError(f"Eulerian row prefixes need width >= 1, got {width}")
    with _lock:
        row = _kept.get(n, ())
        if len(row) < width:
            if width * _PREFIX_DIVISOR <= n:
                row = _row_prefix(n, width)
            else:
                base = max((m for m, kept in _kept.items() if m < n and len(kept) == m), default=1)
                prev = row = _kept.get(base, (1,))
                for _ in range(base, n):
                    prev, row = row, _next_row(row)
                if n > 1:
                    below = _kept.pop(n - 1, ())
                    _kept[n - 1] = below if len(below) == n - 1 else prev
            _kept.pop(n, None)
            while len(_kept) > 1 and sum(map(len, _kept.values())) + len(row) > _KEEP_CELLS:
                del _kept[next(iter(_kept))]
        else:
            del _kept[n]  # re-entered below as the most recently used
        _kept[n] = row
    return row if len(row) == width else row[:width]


def eulerian_value(n: int, k: int) -> int:
    """A(n, k), with exact 0 outside the triangle 1 <= k <= n.

    >>> eulerian_value(4, 2), eulerian_value(4, 0)
    (11, 0)
    """
    row = eulerian_row(n)
    return row[k - 1] if 1 <= k <= n else 0


def cyclic_descent_counts(n: int) -> tuple[int, ...]:
    """How many permutations of n symbols have c = 1, ..., n cyclic descents.

    Entry i-1 is n * A(n-1, i); the last entry is always 0 since c never
    reaches n.

    >>> cyclic_descent_counts(2)
    (2, 0)
    >>> cyclic_descent_counts(3)
    (3, 3, 0)
    >>> sum(cyclic_descent_counts(5)) == factorial(5)
    True
    """
    if n < 2:
        raise UserInputError(f"cyclic descent counts need n >= 2, got n = {n}")
    return tuple(n * a for a in eulerian_row(n - 1)) + (0,)
