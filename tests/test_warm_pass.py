"""A warm exact-large pass builds no Eulerian row.

One pass of the benchmark's exact-large workload, read from
perfbench/ops.py (nothing there is changed), is replayed twice through
`cli.main`. The first replay builds the rows and row prefixes its laws
read; the second must find every one of them kept.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from shufflestats import cli, eulerian

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_ops():
    spec = importlib.util.spec_from_file_location("perfbench_ops", PERFBENCH / "ops.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_second_replay_builds_no_row(monkeypatch):
    built = []
    for name in ("_next_row", "_row_prefix"):
        real = getattr(eulerian, name)

        def counted(*args, _real=real, _name=name):
            built.append(_name)
            return _real(*args)

        monkeypatch.setattr(eulerian, name, counted)
    monkeypatch.setattr(eulerian, "_kept", {})
    one_pass = _load_ops().exact_large_pass(0, 1)

    def replay():
        for op in one_pass:
            try:
                with redirect_stdout(io.StringIO()):
                    cli.main(list(op.argv))
            except ValueError:  # the oversize dist's int-to-str failure
                pass

    replay()
    assert "_next_row" in built
    built.clear()
    replay()
    assert built == []
