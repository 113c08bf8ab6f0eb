"""Run the docstring examples shipped inside the package modules."""

import doctest

import pytest

from shufflestats import eulerian, measures, moments, pair, permutations, sampler, stein

MODULES = [permutations, eulerian, measures, moments, stein, pair, sampler]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.split(".")[-1])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
