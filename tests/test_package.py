"""The package's public surface."""

import shufflestats


def test_all_names_are_unique_and_resolve():
    names = shufflestats.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(shufflestats, name)]
    assert missing == []
