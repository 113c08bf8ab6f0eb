"""Exact Eulerian rows, computed on demand, and cyclic descent counts.

A(n, k) counts permutations of n symbols with exactly k-1 descents
(1 <= k <= n). Everything here is arbitrary-precision integer
arithmetic; no value in this module is ever a float.
"""

from __future__ import annotations

import threading
from math import factorial

from .errors import UserInputError

# Cells of recent rows kept (one pass of a benchmark workload uses at most
# about 6,200); the last two rows made are kept whatever their size.
_KEEP_CELLS = 1 << 14

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


def eulerian_row(n: int) -> tuple[int, ...]:
    """Row n of the Eulerian triangle, (A(n, 1), ..., A(n, n)).

    A row not in the cache is stepped up from the nearest kept row below
    it (row 1 if none), and row n-1 is kept along with it, so a rising
    sweep costs one recurrence step per row.

    >>> eulerian_row(3)
    (1, 4, 1)
    >>> eulerian_row(4)
    (1, 11, 11, 1)
    """
    if n < 1:
        raise UserInputError(f"Eulerian rows need n >= 1, got n = {n}")
    with _lock:
        row = _kept.pop(n, None)
        if row is None:
            base = max((m for m in _kept if m < n), default=1)
            prev = row = _kept.get(base, (1,))
            for _ in range(base, n):
                prev, row = row, _next_row(row)
            if n > 1:
                _kept[n - 1] = _kept.pop(n - 1, prev)
            while len(_kept) > 1 and sum(map(len, _kept.values())) + n > _KEEP_CELLS:
                del _kept[next(iter(_kept))]
        _kept[n] = row
    return row


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
