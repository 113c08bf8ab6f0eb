"""One workload process: import the program, run passes of ops, check them.

Started by run.py in a fresh interpreter with PYTHONPATH pointing at the
checkout's src/. It is a closed loop with one client: each op starts
when the previous one has returned and been checked. Only the op call
is timed; the loop stops at the first pass boundary after --seconds of
timed op time. Timings are scaled to a reference machine speed read
between ops (speed.py). The last stdout line is a JSON summary for run.py.

    PYTHONPATH=src python3 perfbench/workload.py --workload exact-grid --seed 1 \
        --seconds 5 --src src --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ops as opsmod  # noqa: E402
from speed import INTERVAL_S, SpeedTrack, scale_now  # noqa: E402
from tracer import Tracer  # noqa: E402

PACKAGE = "shufflestats"


def resolve(target: str):
    module, _, attr = target.partition(".")
    obj = sys.modules[f"{PACKAGE}.{module}"]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


class Runner:
    """Runs ops, times them, checks them and keeps the tallies."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.record = checks.load_record()
        self.speed = SpeedTrack()
        self.timings: list[tuple[float, float]] = []  # (start, wall seconds) per op
        self.passed: list[bool] = []  # per op run by `run`: output produced and checked
        self.failures: Counter = Counter()
        self.wrong = 0  # failures other than the recorded known ones
        self.draws = 0
        self.bytes_out = 0

    def call(self, op):
        """The op's outcome: (rc, stdout) for CLI ops, else the result or the exception."""
        if op.target == "cli":
            fn, args = resolve("cli.main"), (list(op.argv),)
        else:
            fn, args = resolve(op.target), op.args
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        self.speed.read()
        with redirect_stdout(out), redirect_stderr(err):
            if tracer:
                tracer.active = True
            start = time.perf_counter()
            try:
                result = fn(*args)
            except SystemExit as exc:  # argparse rejects bad argv this way
                result = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                result = exc
            finally:
                elapsed = time.perf_counter() - start
                if tracer:
                    tracer.active = False
        self.timings.append((start, elapsed))
        if elapsed > INTERVAL_S:
            self.speed.read(force=True)
        if op.target == "cli" and not isinstance(result, BaseException):
            return result, out.getvalue()
        return result

    def problem(self, op, outcome) -> str | None:
        reason = checks.failure_text(outcome)
        if reason is not None:
            return reason
        if op.target == "cli":
            return checks.check_cli(op, outcome[1], self.record)
        return checks.check_api(op, outcome)

    def account(self, op, outcome) -> str | None:
        """Check an outcome and count it. Every failure counts in `failures`;
        all but an op failing exactly as recorded in `known_failures` also
        count in `wrong`."""
        if op.target == "cli" and not isinstance(outcome, BaseException):
            self.bytes_out += len(outcome[1].encode("utf-8"))
        reason = self.problem(op, outcome)
        if reason is None:
            self.draws += op.draws
            return None
        self.failures[f"{op.label}: {reason}"] += 1
        self.wrong += self.record["known_failures"].get(op.key) != reason
        return reason

    def run(self, op) -> None:
        self.passed.append(self.account(op, self.call(op)) is None)


def percentile(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(latencies)
    idx = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
    value = ordered[idx]
    return value, sum(1 for v in ordered if v > value)


def latency_metrics(latencies: list[float], total_s: float, tail_pct: float) -> dict:
    """Metrics of the ops that passed their checks (`latencies`); `total_s`
    is the op time of every op attempted, failed ones too."""
    tail, beyond = percentile(latencies, tail_pct)
    return {
        "ops_per_s": len(latencies) / total_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
    }


def run_workload(args, setup_s: float) -> dict:
    """Run passes until --seconds of op time; timings are scaled to the
    reference machine speed (speed.py), and `wall` holds them unscaled."""
    tracer = Tracer(PACKAGE) if args.trace else None
    if tracer:
        tracer.install()
    runner = Runner(tracer)
    done = 0
    for pass_ops in opsmod.passes(args.workload, args.seed):
        for op in pass_ops:
            runner.run(op)
        done += 1
        if math.fsum(elapsed for _, elapsed in runner.timings) >= args.seconds:
            break
    wall = [elapsed for _, elapsed in runner.timings]
    scaled = [elapsed * runner.speed.scale(start, elapsed) for start, elapsed in runner.timings]
    tail_pct = opsmod.TAIL_PERCENTILE.get(args.workload, 100.0)
    result = {
        "setup_s": setup_s,
        "passes": done,
        "attempted": len(scaled),
        "failed": sum(runner.failures.values()),
        "failures": dict(runner.failures),
        "wrong": runner.wrong,
        "timed_s": math.fsum(wall),
        "speed_readings": len(runner.speed.cost),
        "draws": runner.draws,
        "draws_per_s": runner.draws / math.fsum(scaled),
        **latency_metrics([v for v, ok in zip(scaled, runner.passed) if ok], math.fsum(scaled),
                          tail_pct),
        "wall": latency_metrics([v for v, ok in zip(wall, runner.passed) if ok], math.fsum(wall),
                                tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "bytes_out": runner.bytes_out,
        "versions": versions(),
    }
    if tracer:
        result["per_layer"] = per_layer(tracer, runner, done)
    return result


def per_layer(tracer: Tracer, runner: Runner, passes: int) -> dict:
    """Per-pass layer totals (pass 0 also carries cold-cache work)."""
    raw = tracer.summary()
    raw["cli.bytes_out"] = runner.bytes_out
    cards = raw.pop("sampler.cards", 0)
    out = {}
    for key, value in raw.items():
        out[key] = value if key == "eulerian.table_n_max" else value / passes
    out["sampler.ns_per_card"] = raw["sampler.self_s"] * 1e9 / cards if cards else 0.0
    return out


def versions() -> dict:
    out = {"python": platform.python_version()}
    for name in ("numpy", "scipy", "mpmath"):
        module = sys.modules.get(name)
        out[name] = getattr(module, "__version__", None) if module else None
    return out


def selftest() -> int:
    """Show that one corrupted output byte is counted as a failure.

    Runs the digest-checked ops of the first exact-large pass at n = 250,
    accounts each true output (must pass), then the same output with one
    byte changed at several positions (each must add one wrong output),
    and then an exception in place of the output (must add one too).
    Last, a recorded known failure must count as failed but not as wrong.
    """
    runner = Runner(None)
    picked = [op for op in next(opsmod.passes("exact-large", 0))
              if op.key in runner.record["digests"] and op.meta.get("n") == 250]
    caught = missed = 0
    for op in picked:
        rc, text = runner.call(op)
        if runner.account(op, (rc, text)) is not None:
            print(f"selftest: true output failed its check: {op.key}", file=sys.stderr)
            return 1
        positions = sorted({0, 1, len(text) // 3, len(text) // 2, len(text) - 2, len(text) - 1})
        bad = [(rc, text[:pos] + ("0" if text[pos] != "0" else "1") + text[pos + 1:])
               for pos in positions]
        for outcome in bad + [ValueError("selftest")]:
            before = runner.wrong
            runner.account(op, outcome)
            if runner.wrong == before + 1:
                caught += 1
            else:
                missed += 1
                print(f"selftest: not counted as wrong: {op.key}: {str(outcome)[:80]}",
                      file=sys.stderr)
    known = next(op for slot in opsmod.exact_large_slots() for op in slot
                 if op.label == "dist-oversize" and op.key in runner.record["known_failures"])
    recorded = runner.record["known_failures"][known.key]
    before = runner.wrong
    if runner.account(known, runner.call(known)) != recorded or runner.wrong != before:
        print(f"selftest: known failure not counted as recorded: {known.key}", file=sys.stderr)
        missed += 1
    print(f"selftest: {len(picked)} ops, {caught} corrupted outputs and unrecorded exceptions "
          f"counted as wrong, {missed} missed; known failure counted as failed only")
    return 0 if picked and missed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--src", required=True, help="the src/ directory the program must come from")
    args = parser.parse_args(argv)
    importlib.import_module(f"{PACKAGE}.cli")
    setup_s = (time.monotonic() - args.t0) * scale_now()
    origin = Path(sys.modules[PACKAGE].__file__).resolve()
    if Path(args.src).resolve() not in origin.parents:
        print(f"{PACKAGE} was imported from {origin}, not from {args.src}", file=sys.stderr)
        return 2
    if args.workload == "selftest":
        return selftest()
    print(json.dumps(run_workload(args, setup_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
