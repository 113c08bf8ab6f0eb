"""Exact Eulerian-number tables and cyclic descent counts.

A[n][k] counts permutations of n symbols with exactly k-1 descents
(1 <= k <= n). Everything here is arbitrary-precision integer
arithmetic; no value in this module is ever a float.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import factorial

from .errors import UserInputError


class EulerianTable:
    """Triangle of Eulerian numbers built by the standard recurrence.

    The recurrence A[n][k] = k*A[n-1][k] + (n-k+1)*A[n-1][k-1] is exact
    and has no alternating signs, unlike the summation formula.

    >>> t = EulerianTable.build(4)
    >>> t.row(3)
    (1, 4, 1)
    >>> t.row(4)
    (1, 11, 11, 1)
    >>> t.value(4, 0)
    0
    """

    __slots__ = ("n_max", "_rows")

    def __init__(self, n_max: int, rows: tuple[tuple[int, ...], ...]):
        self.n_max = n_max
        self._rows = rows

    @classmethod
    def build(cls, n_max: int) -> "EulerianTable":
        if n_max < 1:
            raise UserInputError("n_max must be >= 1")
        rows: list[tuple[int, ...]] = [(1,)]
        for n in range(2, n_max + 1):
            prev = rows[-1]
            row = []
            for k in range(1, n + 1):
                a = prev[k - 1] if k <= n - 1 else 0
                b = prev[k - 2] if k >= 2 else 0
                row.append(k * a + (n - k + 1) * b)
            rows.append(tuple(row))
        return cls(n_max, tuple(rows))

    def row(self, n: int) -> tuple[int, ...]:
        if not 1 <= n <= self.n_max:
            raise UserInputError(f"row {n} outside table range 1..{self.n_max}")
        return self._rows[n - 1]

    def value(self, n: int, k: int) -> int:
        """A[n][k], with exact 0 outside the triangle 1 <= k <= n."""
        if not 1 <= n <= self.n_max:
            raise UserInputError(f"row {n} outside table range 1..{self.n_max}")
        if k < 1 or k > n:
            return 0
        return self._rows[n - 1][k - 1]

    def to_text(self) -> str:
        """One row per line, decimal big integers, space-separated."""
        return "\n".join(" ".join(str(v) for v in row) for row in self._rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EulerianTable":
        rows = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                row = tuple(int(tok) for tok in line.split())
            except ValueError as exc:
                raise UserInputError(f"bad table line {lineno}: {line!r}") from exc
            if len(row) != len(rows) + 1:
                raise UserInputError(
                    f"line {lineno} has {len(row)} entries, expected {len(rows) + 1}"
                )
            rows.append(row)
        if not rows:
            raise UserInputError("empty table text")
        return cls(len(rows), tuple(rows))


_lock = threading.Lock()
_shared: EulerianTable = EulerianTable.build(16)


def shared_table(n_max: int) -> EulerianTable:
    """Process-wide Eulerian table, grown on demand, never shrunk.

    Tables are immutable, so handing the same instance to concurrent
    readers is safe; growth swaps in a strictly larger table.
    """
    global _shared
    if n_max <= _shared.n_max:
        return _shared
    with _lock:
        if n_max > _shared.n_max:
            # Overshoot a little so a sweep over n does not rebuild per step.
            _shared = EulerianTable.build(max(n_max, 2 * _shared.n_max))
    return _shared


def eulerian_value(n: int, k: int) -> int:
    return shared_table(n).value(n, k)


@dataclass(frozen=True)
class CyclicDescentCounts:
    """How many permutations of n symbols have each cyclic descent count.

    counts[i-1] is the number with c = i, for 1 <= i <= n. The last
    entry is always 0 for n >= 2 since c never reaches n.
    """

    n: int
    counts: tuple[int, ...]

    def count(self, i: int) -> int:
        if not 1 <= i <= self.n:
            return 0
        return self.counts[i - 1]

    def total(self) -> int:
        return sum(self.counts)


def cyclic_descent_counts(n: int) -> CyclicDescentCounts:
    """Counts via the identity #{c = i} = n * A[n-1][i].

    >>> cyclic_descent_counts(2).counts
    (2, 0)
    >>> cyclic_descent_counts(3).counts
    (3, 3, 0)
    >>> cyclic_descent_counts(5).total() == factorial(5)
    True
    """
    if n < 2:
        raise UserInputError("cyclic descent counts require n >= 2")
    table = shared_table(n - 1)
    counts = tuple(n * table.value(n - 1, i) for i in range(1, n + 1))
    return CyclicDescentCounts(n, counts)
