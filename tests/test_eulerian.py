"""Eulerian rows on demand and the cyclic descent counts."""

import math
import random
import sys
import threading
from collections import Counter

import pytest

from conftest import stat_pairs
from shufflestats import (
    UserInputError,
    cyclic_descent_counts,
    eulerian_row,
    eulerian_value,
)
from shufflestats import eulerian


def reference_triangle(n_max):
    """Rows 1..n_max by the plain recurrence, indexed by n (row 0 unused)."""
    rows = [(), (1,)]
    for n in range(2, n_max + 1):
        prev = (0,) + rows[-1] + (0,)
        rows.append(tuple(k * prev[k] + (n - k + 1) * prev[k - 1] for k in range(1, n + 1)))
    return rows


@pytest.fixture
def empty_cache(monkeypatch):
    """A fresh, empty row cache for the test, restored afterwards."""
    monkeypatch.setattr(eulerian, "_kept", {})


def kept_cells():
    return sum(map(len, eulerian._kept.values()))


@pytest.mark.parametrize("n", range(1, 9))
def test_rows_match_enumeration(n):
    counts = Counter(d for d, _ in stat_pairs(n))
    for k in range(1, n + 1):
        assert eulerian_value(n, k) == counts.get(k - 1, 0)


def test_row_sums_are_factorials():
    for n in range(1, 31):
        assert sum(eulerian_row(n)) == math.factorial(n)


def test_rows_are_palindromic():
    for n in range(1, 31):
        row = eulerian_row(n)
        assert row == row[::-1]


def test_values_outside_triangle_are_zero():
    assert eulerian_value(5, 0) == 0
    assert eulerian_value(5, 6) == 0


def test_row_range_is_validated():
    for n in (0, -3):
        with pytest.raises(UserInputError, match=f"n = {n}"):
            eulerian_row(n)
    with pytest.raises(UserInputError):
        eulerian_value(0, 1)


@pytest.mark.parametrize("keep_cells", [eulerian._KEEP_CELLS, 100])
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_rows_in_any_order_match_recurrence(empty_cache, monkeypatch, order, keep_cells):
    monkeypatch.setattr(eulerian, "_KEEP_CELLS", keep_cells)
    ref = reference_triangle(80)
    ns = list(range(1, 81))
    if order == "descending":
        ns.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(ns)
    for n in ns + ns[::3]:
        assert eulerian_row(n) == ref[n]


def test_kept_rows_stay_within_bound(empty_cache):
    ns = list(range(1, 301))
    random.Random(11).shuffle(ns)
    for n in ns:
        eulerian_row(n)
        assert kept_cells() <= eulerian._KEEP_CELLS
    ref = reference_triangle(300)
    assert all(eulerian_row(n) == ref[n] for n in (1, 150, 299, 300))


def test_next_row_takes_one_step(empty_cache, monkeypatch):
    steps = []
    step = eulerian._next_row

    def counting(row):
        steps.append(len(row))
        return step(row)

    monkeypatch.setattr(eulerian, "_next_row", counting)
    eulerian_row(1000)
    assert len(steps) == 999
    steps.clear()
    row = eulerian_row(1001)
    assert steps == [1000]
    assert sum(row) == math.factorial(1001)
    # rows n and n-1 are kept, not a triangle up to 2n
    assert sorted(eulerian._kept) == [999, 1000, 1001]
    steps.clear()
    eulerian_row(999)
    assert steps == []


def test_threads_agree_with_one_thread(empty_cache, monkeypatch):
    # a small bound makes the threads evict each other's rows
    monkeypatch.setattr(eulerian, "_KEEP_CELLS", 200)
    ref = reference_triangle(60)
    orders = [random.Random(seed).sample(range(20, 61), 41) for seed in range(4)]
    results = [None] * 4

    def worker(i):
        results[i] = {n: eulerian_row(n) for n in orders[i] * 3}

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got == {n: ref[n] for n in range(20, 61)}
    assert kept_cells() <= 200


class TestCyclicCounts:
    @pytest.mark.parametrize("n", range(2, 8))
    def test_match_enumeration(self, n):
        counts = Counter(c for _, c in stat_pairs(n))
        record = cyclic_descent_counts(n)
        for i in range(1, n):
            assert record[i - 1] == counts.get(i, 0)
        # the extreme value n is never attained
        assert record[n - 1] == 0
        assert counts.get(n, 0) == 0

    def test_total_is_factorial(self):
        for n in range(2, 12):
            assert sum(cyclic_descent_counts(n)) == math.factorial(n)

    def test_scaling_from_previous_row(self):
        # counts at size n are n times the Eulerian row of size n-1
        n = 9
        record = cyclic_descent_counts(n)
        for i in range(1, n):
            assert record[i - 1] == n * eulerian_value(n - 1, i)

    def test_rejects_singleton(self):
        with pytest.raises(UserInputError, match="n = 1"):
            cyclic_descent_counts(1)

    def test_record_type(self):
        record = cyclic_descent_counts(4)
        assert isinstance(record, tuple)
        assert len(record) == 4
