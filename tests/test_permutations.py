"""Descent statistics, insertion and rotation of one-line tuples."""

import itertools

import pytest

from conftest import oracle_cyclic_descents, oracle_descents
from shufflestats.errors import UserInputError
from shufflestats.measures import parsimony_distance
from shufflestats.permutations import (
    cyclic_descent_count,
    cyclic_rotate,
    descent_count,
    insert_symbol,
)


class TestStatistics:
    def test_descent_examples(self):
        assert descent_count((1, 2, 3, 4, 5)) == 0
        assert descent_count((2, 1)) == 1
        assert descent_count((5, 4, 3, 2, 1)) == 4
        assert descent_count((3, 1, 4, 2)) == 2

    def test_cyclic_examples(self):
        # identity always wraps: the last symbol n exceeds the first.
        assert cyclic_descent_count((1, 2, 3, 4, 5)) == 1
        # full reversal does not wrap.
        assert cyclic_descent_count((5, 4, 3, 2, 1)) == 4

    def test_cyclic_rejects_singleton(self):
        with pytest.raises(UserInputError):
            cyclic_descent_count((1,))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_descents_match_oracle(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            assert descent_count(word) == oracle_descents(word)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cyclic_matches_oracle(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            got = cyclic_descent_count(word)
            assert got == oracle_cyclic_descents(word)

    def test_parsimony_distance(self):
        assert [parsimony_distance(d, "riffle") for d in range(5)] == [0, 1, 2, 2, 3]
        assert [parsimony_distance(c, "cut_riffle") for c in (1, 2, 3, 4)] == [
            0,
            1,
            2,
            2,
        ]
        with pytest.raises(UserInputError):
            parsimony_distance(0, "sideways")


class TestRearrangements:
    def test_insert_symbol_positions(self):
        base = (3, 4, 1, 2)
        words = [insert_symbol(base, j) for j in range(5)]
        assert words == [
            (5, 3, 4, 1, 2),
            (3, 5, 4, 1, 2),
            (3, 4, 5, 1, 2),
            (3, 4, 1, 5, 2),
            (3, 4, 1, 2, 5),
        ]
        with pytest.raises(UserInputError):
            insert_symbol(base, 5)
        with pytest.raises(UserInputError):
            insert_symbol(base, -1)

    def test_cyclic_rotate(self):
        p = (1, 2, 3)
        assert cyclic_rotate(p, 0) == p
        assert cyclic_rotate(p, 1) == (2, 3, 1)
        assert cyclic_rotate(p, 2) == (3, 1, 2)
        with pytest.raises(UserInputError):
            cyclic_rotate(p, 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rotation_preserves_cyclic_count(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            c = cyclic_descent_count(word)
            for s in range(n):
                assert cyclic_descent_count(cyclic_rotate(word, s)) == c

    def test_rotations_are_distinct(self):
        p = (2, 4, 1, 3)
        rotated = {cyclic_rotate(p, s) for s in range(4)}
        assert len(rotated) == 4
