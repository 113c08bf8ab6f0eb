"""Benchmark entry point for shufflestats.

    python3 perfbench/run.py --workload exact-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --reference      # one-shot ROADMAP baseline rows, ungated
    python3 perfbench/run.py --selftest       # a corrupted output byte counts as a failure

Run from the root of a source checkout; the program is imported from
its src/ directory, nothing is installed. Each workload runs in a fresh
interpreter (perfbench/workload.py). With --trace 0 the last stdout line
holds the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run, plus the tracing overhead measured against an
untraced run of the same seed. Lines before it are a readable report
with the run's metadata. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from ops import REFERENCE_ROWS, WORKLOADS  # noqa: E402

SETUP_PROBES = 4
BUDGET_S = 170.0
IMPORT_PACKAGES = ("scipy", "numpy", "mpmath", "shufflestats")


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def run_checked(cmd: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child to completion (killed and reaped at the deadline)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd[:4])}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:4])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def probe_setup(deadline: float) -> tuple[float, float]:
    """Seconds from process start until shufflestats.cli is imported: wall,
    and scaled to the reference machine speed read right after the import."""
    code = ("import time, shufflestats.cli; t = time.monotonic(); import sys; "
            f"sys.path.insert(0, {str(HERE)!r}); import speed; print(t, speed.scale_now())")
    t0 = time.monotonic()
    proc = run_checked([sys.executable, "-c", code], deadline)
    imported_at, scale = map(float, proc.stdout.split()[-2:])
    return imported_at - t0, (imported_at - t0) * scale


def import_split(deadline: float) -> dict[str, float]:
    """Self import time summed by top-level package, from -X importtime."""
    proc = run_checked([sys.executable, "-X", "importtime", "-c", "import shufflestats.cli"],
                       deadline)
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (part.strip() for part in line[len("import time:"):].split("|"))
        top = name.split(".")[0]
        if top in totals and self_us.isdigit():
            totals[top] += int(self_us) / 1e6
    return {f"setup.import_s.{name}": value for name, value in totals.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--src", str(SRC)]
    proc = run_checked(cmd + ["--t0", repr(time.monotonic())], deadline)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata(args) -> dict:
    try:
        # The ceiling keeps git from reporting the commit of an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "shufflestats").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def end_to_end(args, deadline: float) -> tuple[dict, dict]:
    setups = [probe_setup(deadline)[1] for _ in range(SETUP_PROBES)]
    res = run_workload(args.workload, args.seed, args.seconds, 0, deadline)
    setups.append(res["setup_s"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (res["ops_per_s"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_tail_ms": (res["latency_tail_ms"], "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "success_rate": (1 - res["failed"] / res["attempted"], "ratio"),
    }
    res["setup_samples_s"] = setups
    return metrics, res


def per_layer(args, deadline: float) -> tuple[dict, dict]:
    base = run_workload(args.workload, args.seed, args.seconds, 0, deadline)
    res = run_workload(args.workload, args.seed, args.seconds, 1, deadline)
    layer = dict(res.pop("per_layer"))
    layer.update(import_split(deadline))
    layer["trace.overhead_frac"] = 1 - res["ops_per_s"] / base["ops_per_s"]
    units = {"calls": "count", "self_s": "s", "ns_per_card": "ns", "overhead_frac": "ratio",
             "bigint_digits": "digits", "bytes_out": "bytes"}
    metrics = {}
    for key, value in sorted(layer.items()):
        tail = key.rsplit(".", 1)[-1]
        metrics[key] = (value, "s" if key.startswith("setup.") else units.get(tail, "count"))
    res["untraced_ops_per_s"] = base["ops_per_s"]
    return metrics, res


def report(meta: dict, res: dict, metrics: dict) -> None:
    print(f"shufflestats benchmark: {json.dumps(meta)}")
    print(f"versions: {json.dumps(res['versions'])}")
    wall = res["wall"]
    print(f"passes {res['passes']}, ops {res['attempted']}, failed {res['failed']} "
          f"(error_rate {res['failed'] / res['attempted']:.6g} ratio), timed {res['timed_s']:.3f} s "
          f"wall, {res['speed_readings']} speed readings, "
          f"draws {res['draws']} (draws_per_s {res['draws_per_s']:.6g} 1/s), "
          f"latency tail at p{res['latency_tail_percentile']:.3f} with "
          f"{res['latency_tail_beyond']} samples beyond")
    print(f"unscaled wall: ops_per_s {wall['ops_per_s']:.6g} 1/s, latency_p50_ms "
          f"{wall['latency_p50_ms']:.6g} ms, latency_tail_ms {wall['latency_tail_ms']:.6g} ms")
    for reason, count in sorted(res["failures"].items()):
        print(f"  failure x{count}: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")


def reference(seed: int) -> int:
    """Re-time the ROADMAP baseline rows, each in its own process."""
    deadline = time.monotonic() + 1800
    rows = {"import shufflestats.cli": {
        "seconds": statistics.median(probe_setup(deadline)[0] for _ in range(5))}}
    for name in REFERENCE_ROWS:
        res = run_workload(f"reference:{name}", seed, 0, 0, deadline)
        rows[name] = {"seconds": res["timed_s"], "peak_rss_mb": res["peak_rss_mb"],
                      "failed": res["failed"], "failures": res["failures"]}
        print(f"{name:48s} {res['timed_s']:9.3f} s {res['peak_rss_mb']:9.1f} MB", flush=True)
    args = argparse.Namespace(workload="reference", seed=seed, seconds=0, trace=0)
    print(json.dumps({"meta": metadata(args), "versions": res["versions"], "rows": rows}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "shufflestats" / "cli.py").is_file():
        print(f"no program source at {SRC / 'shufflestats'}; run from a source checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.reference:
            return reference(args.seed)
        if args.selftest:
            proc = run_checked([sys.executable, str(HERE / "workload.py"), "--workload", "selftest",
                                "--seed", "0", "--seconds", "0", "--src", str(SRC),
                                "--t0", repr(time.monotonic())], deadline)
            print(proc.stdout, end="")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.trace:
            metrics, res = per_layer(args, deadline)
        else:
            metrics, res = end_to_end(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    report(metadata(args), res, metrics)
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
