"""Permutation container and the descent statistics."""

import itertools

import pytest

from conftest import oracle_cyclic_descents, oracle_descents
from shufflestats.errors import UserInputError
from shufflestats.measures import parsimony_distance
from shufflestats.permutations import (
    Permutation,
    cyclic_descent_count,
    cyclic_rotate,
    descent_count,
    enumerate_sn,
    insert_symbol,
)


class TestConstruction:
    def test_identity(self):
        assert Permutation.identity(4).word == (1, 2, 3, 4)

    def test_one_based_call(self):
        p = Permutation((2, 3, 1))
        assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(UserInputError):
            p(0)
        with pytest.raises(UserInputError):
            p(4)

    def test_inverse(self):
        for word in itertools.permutations(range(1, 6)):
            p = Permutation(word)
            q = p.inverse()
            assert all(q(p(i)) == i for i in range(1, 6))

    @pytest.mark.parametrize(
        "word",
        [(), (0, 1), (1, 1), (1, 3), (2,), (1, 2, 4)],
    )
    def test_invalid_words_rejected(self, word):
        with pytest.raises(UserInputError):
            Permutation(word)

    def test_non_integer_rejected(self):
        with pytest.raises(UserInputError):
            Permutation((1.0, 2.0))

    def test_immutable_and_hashable(self):
        p = Permutation((1, 2))
        with pytest.raises(AttributeError):
            p.word = (2, 1)
        assert p == Permutation([1, 2])
        assert hash(p) == hash(Permutation((1, 2)))
        assert p != Permutation((2, 1))


class TestStatistics:
    def test_descent_examples(self):
        assert descent_count(Permutation.identity(5)) == 0
        assert descent_count(Permutation((2, 1))) == 1
        assert descent_count(Permutation((5, 4, 3, 2, 1))) == 4
        assert descent_count(Permutation((3, 1, 4, 2))) == 2

    def test_cyclic_examples(self):
        # identity always wraps: the last symbol n exceeds the first.
        assert cyclic_descent_count(Permutation.identity(5)) == 1
        # full reversal does not wrap.
        assert cyclic_descent_count(Permutation((5, 4, 3, 2, 1))) == 4

    def test_cyclic_rejects_singleton(self):
        with pytest.raises(UserInputError):
            cyclic_descent_count(Permutation((1,)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_descents_match_oracle(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            assert descent_count(Permutation(word)) == oracle_descents(word)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_cyclic_matches_oracle(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            got = cyclic_descent_count(Permutation(word))
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
        base = Permutation((3, 4, 1, 2))
        words = [insert_symbol(base, j).word for j in range(5)]
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
        p = Permutation((1, 2, 3))
        assert cyclic_rotate(p, 0) == p
        assert cyclic_rotate(p, 1).word == (2, 3, 1)
        assert cyclic_rotate(p, 2).word == (3, 1, 2)
        with pytest.raises(UserInputError):
            cyclic_rotate(p, 3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_rotation_preserves_cyclic_count(self, n):
        for word in itertools.permutations(range(1, n + 1)):
            p = Permutation(word)
            c = cyclic_descent_count(p)
            for s in range(n):
                assert cyclic_descent_count(cyclic_rotate(p, s)) == c

    def test_rotations_are_distinct(self):
        p = Permutation((2, 4, 1, 3))
        rotated = {cyclic_rotate(p, s) for s in range(4)}
        assert len(rotated) == 4


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_stream(self, n):
        got = {p.word for p in enumerate_sn(n)}
        want = set(itertools.permutations(range(1, n + 1)))
        assert got == want

    def test_cap_enforced(self):
        with pytest.raises(UserInputError):
            list(enumerate_sn(11))
        # explicit cap raise is honored
        stream = enumerate_sn(11, cap=11)
        assert next(stream).word == tuple(range(1, 12))
