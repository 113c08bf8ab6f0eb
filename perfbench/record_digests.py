"""Record what every exact-large op does at the current commit.

    PYTHONPATH=src python3 perfbench/record_digests.py

Writes perfbench/digests.json: under `digests`, the stdout SHA-256 of
every `dist` and `eulerian` op the workload can run; under
`known_failures`, the failure text of every op that raised or exited
non-zero. The benchmark then counts a change to those bytes, and any
failure other than a recorded one, as a wrong output, so re-record only
when such a change is intended and stated.
"""

from __future__ import annotations

import json
import sys

import shufflestats.cli  # noqa: F401  (loads every module the ops resolve)

from workload import Runner
import checks
import ops


def main() -> int:
    runner = Runner(None)
    digests, known_failures = {}, {}
    seen = set()
    for op in (op for slot in ops.exact_large_slots() for op in slot):
        if op.key in seen:
            continue
        seen.add(op.key)
        outcome = runner.call(op)
        reason = checks.failure_text(outcome)
        if reason is not None:
            known_failures[op.key] = reason
            print(f"failed: {op.key}: {reason}", file=sys.stderr)
        elif op.argv[0] in checks.DIGESTED:
            digests[op.key] = checks.digest(outcome[1])
    record = {"digests": digests, "known_failures": known_failures}
    checks.DIGESTS_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests and {len(known_failures)} known failures written to "
          f"{checks.DIGESTS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
