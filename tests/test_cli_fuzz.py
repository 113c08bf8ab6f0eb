"""CLI fuzz: random argv over the real subcommands and flags, small values.

Every call must end in exit 0 (an answer), 2 (bad input) or 3 (a failed
certificate), raise no warning and let no exception escape, within a
few seconds. The argv is built from `cli._build_parser()` itself, so a
new flag is fuzzed as soon as it exists.
"""

import argparse
import io
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from shufflestats import cli

SEEDS = ("-1", "0", "7", str(2**63), str(2**64 - 1), str(2**64), "auto", "x")
INTS = {
    "k": (-1, 12),
    "n": (-1, 10),
    "count": (-1, 3000),
    "streams": (0, 4),
    "rounds": (-1, 8),
    "oracle_max": (0, 6),
    "k_max": (0, 6),
    "n_max": (0, 6),
    "n_lo": (0, 9),
    "n_hi": (0, 9),
    "k_points": (0, 4),
}
SKIP = {"help", "out"}  # --out writes files; stdout is what is captured here
# --k also draws powers of ten, to 10^400, past the double range that the
# asymptotic moments and the Poisson bound reach, and past the 4,300-digit
# int-to-str limit in the exact moments (up to 18 log10(k) digits at n <= 10).


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = cli._build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


SUBCOMMANDS = sorted(_subcommands().items())


def _value(action: argparse.Action) -> st.SearchStrategy:
    if action.choices is not None:
        return st.sampled_from(list(action.choices)).map(str)
    if action.dest == "seed":
        return st.sampled_from(SEEDS)
    if action.dest == "n_list":
        return st.lists(st.integers(-1, 40), min_size=1, max_size=3).map(
            lambda vs: ",".join(map(str, vs))
        )
    lo, hi = INTS[action.dest]
    values = st.integers(lo, hi)
    if action.dest == "k":
        powers = st.integers(0, 400).map(lambda e: 10**e)
        values = st.one_of(values, powers)
    return values.map(str)


@st.composite
def argvs(draw) -> list[str]:
    name, sub = draw(st.sampled_from(SUBCOMMANDS))
    argv = [name]
    for action in sub._actions:
        if action.dest in SKIP:
            continue
        # A required flag is left out one time in ten, for argparse's exit 2.
        keep = draw(st.integers(0, 9)) > 0 if action.required else draw(st.booleans())
        if not keep:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:
            argv.append(flag)
        else:
            argv += [flag, draw(_value(action))]
    return argv


def _run(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@settings(max_examples=150, deadline=None)
@given(argv=argvs())
# The first powers of ten whose (k/m)^2 and k/n leave the double range.
@example(argv=["tv", "--statistic", "Cc", "--k", str(10**155), "--n", "3"])
@example(argv=["moments", "--measure", "C", "--stat", "c", "--k", str(10**309), "--n", "3",
               "--asymptotic"])
@example(argv=["moments", "--measure", "R", "--stat", "d", "--k", str(10**400), "--n", "10"])
# A count past numpy's signed 64-bit sizes; the drawn counts stay small,
# since a count numpy can index may still ask for terabytes.
@example(argv=["sample", "--measure", "R", "--k", "4", "--n", "6", "--count", str(10**20),
               "--seed", "1", "--streams", "1"])
@example(argv=["riffle", "--n", "5", "--rounds", "2", "--count", str(10**20), "--seed", "1"])
def test_every_argv_exits_0_2_or_3(argv):
    started = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _run(argv)
    assert code in (0, 2, 3), argv
    assert time.perf_counter() - started < 5.0, argv
