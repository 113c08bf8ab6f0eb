"""Permutations in one-line form plus descent statistics.

A permutation pi of {1..n} is stored as the bottom row of its two-line
form: ``word[i-1] == pi(i)`` with positions 1-based in every public
interface. The module also hosts the exhaustive-enumeration oracle used
by the test suite to anchor every exact formula in the package.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import UserInputError

# Full enumeration of S_9 (362,880 elements) with statistics stays under
# a second; S_10 starts to hurt.
DEFAULT_ENUMERATION_CAP = 9


class Permutation:
    """An element of S_n held as an immutable one-line word.

    >>> p = Permutation((3, 1, 4, 2, 5))
    >>> p.n
    5
    >>> p(1)
    3
    >>> str(p)
    '3 1 4 2 5'
    """

    __slots__ = ("word",)

    word: tuple[int, ...]

    def __init__(self, word: Sequence[int]):
        w = tuple(word)
        n = len(w)
        if n < 1:
            raise UserInputError("permutation must have at least one symbol")
        seen = [False] * (n + 1)
        for v in w:
            if not isinstance(v, int) or v < 1 or v > n or seen[v]:
                raise UserInputError(f"not a bijection on 1..{n}: {w!r}")
            seen[v] = True
        object.__setattr__(self, "word", w)

    @classmethod
    def _from_trusted(cls, word: tuple[int, ...]) -> "Permutation":
        # Bypass validation on hot paths where the word is constructed
        # by an operation that preserves bijectivity.
        self = object.__new__(cls)
        object.__setattr__(self, "word", word)
        return self

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        if n < 1:
            raise UserInputError("n must be >= 1")
        return cls._from_trusted(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.word)

    def __call__(self, i: int) -> int:
        """Image pi(i) of a 1-based position."""
        if not 1 <= i <= len(self.word):
            raise UserInputError(f"position {i} out of range 1..{len(self.word)}")
        return self.word[i - 1]

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Permutation is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Permutation({self.word!r})"

    def __str__(self) -> str:
        return " ".join(str(v) for v in self.word)


def descent_count(p: Permutation) -> int:
    """Number of descents d(pi).

    >>> descent_count(Permutation((3, 1, 4, 2, 5)))
    2
    >>> descent_count(Permutation.identity(6))
    0
    >>> descent_count(Permutation((4, 3, 2, 1)))
    3
    """
    w = p.word
    return sum(1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def cyclic_descent_count(p: Permutation) -> int:
    """Cyclic descent count c(pi): d(pi) plus 1 when pi(n) > pi(1).

    Position n counts as a cyclic descent exactly when the word wraps
    downward, i.e. pi(n) > pi(1). Undefined for n = 1 (there is no
    distinct pair to compare), so that case is rejected.

    >>> cyclic_descent_count(Permutation((1, 2, 3)))
    1
    >>> cyclic_descent_count(Permutation((3, 2, 1)))
    2
    >>> cyclic_descent_count(Permutation((2, 3, 1)))
    1
    """
    w = p.word
    if len(w) < 2:
        raise UserInputError("cyclic descent count requires n >= 2")
    c = descent_count(p)
    if w[-1] > w[0]:
        c += 1
    return c


def insert_symbol(p: Permutation, j: int) -> Permutation:
    """Insert the new largest symbol n+1 after position j (0 <= j <= n).

    The first j images are kept, n+1 goes into position j+1, the rest
    shift right by one.

    >>> str(insert_symbol(Permutation((3, 4, 1, 2)), 2))
    '3 4 5 1 2'
    >>> str(insert_symbol(Permutation((1,)), 0))
    '2 1'
    """
    w = p.word
    n = len(w)
    if not 0 <= j <= n:
        raise UserInputError(f"insertion position {j} out of range 0..{n}")
    return Permutation._from_trusted(w[:j] + (n + 1,) + w[j:])


def cyclic_rotate(p: Permutation, shift: int) -> Permutation:
    """Rotate the one-line word left by ``shift`` positions.

    >>> str(cyclic_rotate(Permutation((6, 4, 1, 5, 3, 2, 7)), 3))
    '5 3 2 7 6 4 1'
    >>> str(cyclic_rotate(Permutation((1, 2, 3)), 1))
    '2 3 1'
    """
    w = p.word
    n = len(w)
    if not 0 <= shift <= n - 1:
        raise UserInputError(f"shift {shift} out of range 0..{n - 1}")
    if shift == 0:
        return p
    return Permutation._from_trusted(w[shift:] + w[:shift])


def enumerate_sn(n: int) -> Iterator[Permutation]:
    """Yield every element of S_n exactly once, for n up to the cap."""
    if n < 1:
        raise UserInputError("n must be >= 1")
    if n > DEFAULT_ENUMERATION_CAP:
        raise UserInputError(
            f"enumeration of S_{n} exceeds the oracle cap {DEFAULT_ENUMERATION_CAP}"
        )
    for word in itertools.permutations(range(1, n + 1)):
        yield Permutation._from_trusted(word)
