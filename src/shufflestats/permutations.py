"""Descent statistics, insertion and rotation of one-line permutations.

A permutation pi of {1..n} is a plain tuple, the bottom row of its
two-line form: ``word[i-1] == pi(i)``.
"""

from __future__ import annotations

from .errors import UserInputError


def descent_count(w: tuple[int, ...]) -> int:
    """Number of descents d(pi).

    >>> descent_count((3, 1, 4, 2, 5))
    2
    >>> descent_count((1, 2, 3, 4, 5, 6))
    0
    >>> descent_count((4, 3, 2, 1))
    3
    """
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def cyclic_descent_count(w: tuple[int, ...]) -> int:
    """Cyclic descent count c(pi): d(pi) plus 1 when pi(n) > pi(1).

    Position n counts as a cyclic descent exactly when the word wraps
    downward, i.e. pi(n) > pi(1). Undefined for n = 1 (there is no
    distinct pair to compare), so that case is rejected.

    >>> cyclic_descent_count((1, 2, 3))
    1
    >>> cyclic_descent_count((3, 2, 1))
    2
    >>> cyclic_descent_count((2, 3, 1))
    1
    """
    if len(w) < 2:
        raise UserInputError("cyclic descent count requires n >= 2")
    c = descent_count(w)
    if w[-1] > w[0]:
        c += 1
    return c


def insert_symbol(w: tuple[int, ...], j: int) -> tuple[int, ...]:
    """Insert the new largest symbol n+1 after position j (0 <= j <= n).

    The first j images are kept, n+1 goes into position j+1, the rest
    shift right by one.

    >>> insert_symbol((3, 4, 1, 2), 2)
    (3, 4, 5, 1, 2)
    >>> insert_symbol((1,), 0)
    (2, 1)
    """
    n = len(w)
    if not 0 <= j <= n:
        raise UserInputError(f"insertion position {j} out of range 0..{n}")
    return w[:j] + (n + 1,) + w[j:]


def cyclic_rotate(w: tuple[int, ...], shift: int) -> tuple[int, ...]:
    """Rotate the one-line word left by ``shift`` positions.

    >>> cyclic_rotate((6, 4, 1, 5, 3, 2, 7), 3)
    (5, 3, 2, 7, 6, 4, 1)
    >>> cyclic_rotate((1, 2, 3), 1)
    (2, 3, 1)
    """
    n = len(w)
    if not 0 <= shift <= n - 1:
        raise UserInputError(f"shift {shift} out of range 0..{n - 1}")
    return w[shift:] + w[:shift]
