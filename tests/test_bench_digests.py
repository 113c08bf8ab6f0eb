"""Byte-identity of every exact-large `dist` and `eulerian` op.

perfbench/digests.json records the stdout SHA-256 of each of these ops,
and the failure text of the ones that fail (the int-to-str limit). This
walk replays them through `cli.main` and holds every byte of output, and
every recorded failure, to that record. It reads the benchmark's files
and changes none of them.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from shufflestats import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


ops = _load("ops")
checks = _load("checks")
RECORD = checks.load_record()
OPS = {
    op.key: op
    for slot in ops.exact_large_slots()
    for op in slot
    if op.argv[0] in checks.DIGESTED
}


def test_every_op_has_a_record():
    assert len(RECORD["digests"]) == 60
    assert set(OPS) == set(RECORD["digests"]) | {
        key for key in RECORD["known_failures"] if key in OPS
    }
    assert {op.label for op in OPS.values() if op.key in RECORD["known_failures"]} == {
        "dist-oversize"
    }


@pytest.mark.parametrize("key", sorted(OPS))
def test_stdout_matches_the_record(key):
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            outcome = (cli.main(list(OPS[key].argv)), out.getvalue())
    except Exception as exc:  # noqa: BLE001 - the failure text is what is checked
        outcome = exc
    reason = checks.failure_text(outcome)
    if key in RECORD["known_failures"]:
        assert reason == RECORD["known_failures"][key]
    else:
        assert reason is None
        assert checks.digest(outcome[1]) == RECORD["digests"][key]
