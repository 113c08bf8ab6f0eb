"""Eulerian triangle and the cyclic descent counts."""

import math
from collections import Counter

import pytest

from conftest import stat_pairs
from shufflestats import (
    CyclicDescentCounts,
    EulerianTable,
    UserInputError,
    cyclic_descent_counts,
    eulerian_value,
    shared_table,
)


@pytest.mark.parametrize("n", range(1, 9))
def test_rows_match_enumeration(n):
    counts = Counter(d for d, _ in stat_pairs(n))
    table = EulerianTable.build(n)
    for k in range(1, n + 1):
        assert table.value(n, k) == counts.get(k - 1, 0)


def test_row_sums_are_factorials():
    table = EulerianTable.build(30)
    for n in range(1, 31):
        assert sum(table.row(n)) == math.factorial(n)


def test_rows_are_palindromic():
    table = EulerianTable.build(30)
    for n in range(1, 31):
        row = table.row(n)
        assert row == row[::-1]


def test_values_outside_triangle_are_zero():
    assert eulerian_value(5, 0) == 0
    assert eulerian_value(5, 6) == 0


def test_row_range_is_validated():
    table = EulerianTable.build(6)
    with pytest.raises(UserInputError):
        table.row(0)
    with pytest.raises(UserInputError):
        table.row(7)
    with pytest.raises(UserInputError):
        EulerianTable.build(0)


def test_shared_table_grows_monotonically():
    small = shared_table(5)
    big = shared_table(12)
    assert big.n_max >= 12
    assert big.row(5) == small.row(5)


def test_serialization_round_trip():
    table = EulerianTable.build(9)
    text = table.to_text()
    back = EulerianTable.from_text(text)
    assert back.n_max == 9
    assert all(back.row(n) == table.row(n) for n in range(1, 10))


def test_from_text_rejects_ragged_input():
    with pytest.raises(UserInputError):
        EulerianTable.from_text("1\n1 1 1\n")


class TestCyclicCounts:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_match_enumeration(self, n):
        counts = Counter(c for _, c in stat_pairs(n))
        record = cyclic_descent_counts(n)
        for i in range(1, n):
            assert record.count(i) == counts.get(i, 0)
        # the extreme value n is never attained
        assert record.count(n) == 0
        assert counts.get(n, 0) == 0

    def test_total_is_factorial(self):
        for n in range(2, 12):
            assert cyclic_descent_counts(n).total() == math.factorial(n)

    def test_scaling_from_previous_row(self):
        # counts at size n are n times the Eulerian row of size n-1
        n = 9
        record = cyclic_descent_counts(n)
        table = EulerianTable.build(n - 1)
        for i in range(1, n):
            assert record.count(i) == n * table.value(n - 1, i)

    def test_rejects_singleton(self):
        with pytest.raises(UserInputError):
            cyclic_descent_counts(1)

    def test_record_type(self):
        record = cyclic_descent_counts(4)
        assert isinstance(record, CyclicDescentCounts)
        assert record.n == 4
