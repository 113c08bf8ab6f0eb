"""Batch command-line front end.

Eight subcommands expose the engine: `dist` (exact pmfs), `moments`
(exact and asymptotic moment reports), `tv` (certified Poisson
total-variation rows, single or swept), `sample` and `riffle` (the two
samplers with goodness-of-fit summaries), `diagnostic` (the regression
remainder table), `verify` (the cross-module identity suites), and
`eulerian` (raw Eulerian rows).

Output conventions, applied uniformly: exact rationals are reduced
"num/den" strings, floats carry 17 significant digits and are emitted as
strings in JSON so no consumer re-rounds them, rows are sorted, and the
same invocation always produces the same bytes. When `--out PATH` is
given, the report goes to PATH and a sibling PATH.manifest.json records
the tool version, the full parameter set (including any seed drawn by
`--seed auto`), wall time, and a sha256 checksum of the output.

Exit codes: 0 success, 2 bad input, 3 a mathematical certification
failed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import secrets
import sys
import time
from dataclasses import asdict

from . import __version__
from .errors import CertificationError, UserInputError
from .eulerian import cyclic_descent_counts, eulerian_row
from .measures import statistic_law
from .pair import NogoodRow, nogood_diagnostic
from .sampler import SamplerConfig, SampleSummary, riffle_summary, sample_statistic
from .stein import STATISTIC_CODES, TvReport, certification_sweep, tv_report
from .verify import DEFAULT_ORACLE_MAX, FAULT_MODES, run_all

_SAMPLE_CSV_HEADER = ("value", "count", "empirical", "exact_num", "exact_den", "z")


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _stringify(obj):
    """Render floats as 17-significant-digit strings, recursively."""
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        return {key: _stringify(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(value) for value in obj]
    return obj


def _render_json(payload) -> str:
    return json.dumps(_stringify(payload)) + "\n"


def _render_csv(header, rows) -> str:
    def cell_text(cell) -> str:
        if cell is None:
            return ""
        if isinstance(cell, float):
            return _fmt_float(cell)
        return str(cell)

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    lines = []
    for row in [header, *rows]:
        texts = [cell_text(cell) for cell in row]
        line = ",".join(texts)
        # A plain join is what csv.writer writes when no cell needs quoting;
        # any other row (and a lone cell, which it may quote) goes through it.
        plain = line.count(",") == len(texts) - 1 and not any(c in line for c in '"\r\n')
        if len(texts) > 1 and plain:
            lines.append(line + "\n")
        else:
            writer.writerow(texts)
            lines.append(buffer.getvalue())
            buffer.seek(0)
            buffer.truncate()
    return "".join(lines)


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise UserInputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(text: str, args, params: dict, started: float) -> None:
    if args.out is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    _write(args.out, data)
    manifest = {
        "tool": "shufflestats",
        "version": __version__,
        "subcommand": args.subcommand,
        "parameters": _stringify(params),
        "wall_time_seconds": round(time.perf_counter() - started, 6),
        "outputs": [
            {
                "path": args.out,
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        ],
    }
    record = json.dumps(manifest, indent=2) + "\n"
    _write(f"{args.out}.manifest.json", record.encode("utf-8"))


def _params(args, **overrides) -> dict:
    skip = {"handler"}
    out = {key: value for key, value in vars(args).items() if key not in skip}
    out.update(overrides)
    return out


def _resolve_seed(args) -> int:
    """Parse --seed; "auto" draws 64 fresh bits, announced on stderr without --out."""
    if args.seed == "auto":
        seed = secrets.randbits(64)
        if args.out is None:
            print(f"drawn seed: {seed}", file=sys.stderr)
        return seed
    try:
        seed = int(args.seed)
    except ValueError as exc:
        raise UserInputError(f"seed must be an integer or 'auto', got {args.seed!r}") from exc
    if not 0 <= seed < 2**64:
        raise UserInputError("seed must fit in an unsigned 64-bit integer")
    return seed


def _sample_report(args, head: dict, summary: SampleSummary) -> tuple:
    """Payload and CSV rows of `sample` and `riffle`: the run's head plus its summary."""
    exact, z = summary.exact_pmf, summary.bin_z
    payload = dict(head)
    payload.update(
        histogram={str(v): c for v, c in summary.histogram.items()},
        empirical_pmf={str(v): p for v, p in summary.empirical_pmf.items()},
        exact_pmf=exact.to_json_dict(),
        per_bin_z={str(v): value for v, value in z.items()},
        chi_square=summary.chi_square,
        p_value=summary.p_value,
        max_bin_z=summary.max_bin_z,
    )
    rows = [
        (v, summary.histogram[v], float(summary.empirical_pmf[v]), a, d, float(z[v]))
        for v, a, d, _ in exact.to_csv_rows()
    ]
    return payload, _SAMPLE_CSV_HEADER, rows, _params(args, seed=head["seed"]), 0


def _cmd_dist(args) -> tuple:
    pmf = statistic_law(args.measure, args.stat).pmf(args.k, args.n)
    header = ("value", "numerator", "denominator", "probability")
    # Only the asked-for format is built: both stringify every atom.
    if args.format == "json":
        return pmf.to_json_dict(), header, None, _params(args), 0
    # Atoms share a few reduced denominators: each is converted to text once.
    texts: dict[int, str] = {}
    rows = [
        (v, a, texts.get(d) or texts.setdefault(d, str(d)), x)
        for v, a, d, x in pmf.to_csv_rows()
    ]
    return None, header, rows, _params(args), 0


def _cmd_moments(args) -> tuple:
    report = statistic_law(args.measure, args.stat).moments(args.k, args.n)
    payload = report.to_json_dict(include_asym=args.asymptotic)
    header = tuple(payload)
    return payload, header, [tuple(payload.values())], _params(args), 0


def _cmd_tv(args) -> tuple:
    if args.grid:
        if args.k is not None or args.n is not None:
            raise UserInputError("--grid ignores --k/--n; drop them or drop --grid")
        n_list = tuple(args.n_list)
        stats = STATISTIC_CODES if args.statistic == "all" else (args.statistic,)
        reports = certification_sweep(n_list, args.k_points, stats)
        reports.sort(key=lambda r: (r.statistic, r.n, r.k))
        payload = [dict(zip(TvReport.CSV_HEADER, r.csv_row())) for r in reports]
        rows = [r.csv_row() for r in reports]
        return payload, TvReport.CSV_HEADER, rows, _params(args), 0
    if args.statistic == "all":
        raise UserInputError("single-point tv needs --statistic Cd, Cc, or R")
    if args.k is None or args.n is None:
        raise UserInputError("single-point tv needs --k and --n (or use --grid)")
    report = tv_report(args.k, args.n, args.statistic)
    payload = dict(zip(TvReport.CSV_HEADER, report.csv_row()))
    return payload, TvReport.CSV_HEADER, [report.csv_row()], _params(args), 0


def _cmd_sample(args) -> tuple:
    seed = _resolve_seed(args)
    config = SamplerConfig(
        k=args.k, n=args.n, count=args.count, seed=seed, streams=args.streams
    )
    head = {
        "measure": args.measure,
        "statistic": args.stat,
        "k": args.k,
        "n": args.n,
        "count": args.count,
        "seed": seed,
        "streams": args.streams,
    }
    return _sample_report(args, head, sample_statistic(args.measure, args.stat, config))


def _cmd_riffle(args) -> tuple:
    seed = _resolve_seed(args)
    head = {"n": args.n, "rounds": args.rounds, "count": args.count, "seed": seed}
    return _sample_report(args, head, riffle_summary(args.n, args.rounds, args.count, seed))


def _cmd_diagnostic(args) -> tuple:
    rows = [row.csv_row() for row in nogood_diagnostic(args.n_lo, args.n_hi)]
    payload = [dict(zip(NogoodRow.CSV_HEADER, row)) for row in rows]
    return payload, NogoodRow.CSV_HEADER, rows, _params(args), 0


def _cmd_verify(args) -> tuple:
    results = run_all(
        oracle_max=args.oracle_max,
        k_max=args.k_max,
        n_max=args.n_max,
        inject_fault=args.inject_fault,
    )
    all_passed = all(r.passed for r in results)
    payload = {
        "oracle_max": args.oracle_max,
        "k_max": args.k_max,
        "n_max": args.n_max,
        "inject_fault": args.inject_fault,
        "all_passed": all_passed,
        "suites": [asdict(r) for r in results],
    }
    rows = [(r.name, r.passed, r.checks, r.detail) for r in results]
    header = ("name", "passed", "checks", "detail")
    return payload, header, rows, _params(args), 0 if all_passed else 3


def _palindrome_text(values) -> list[str]:
    """str() of each entry of a palindromic row, converting only its first half."""
    half = [str(v) for v in values[: (len(values) + 1) // 2]]
    return half + half[: len(values) // 2][::-1]


def _cmd_eulerian(args) -> tuple:
    if args.cyclic:
        # n * A(n-1, i) for i < n is a palindrome; the last count is 0.
        values = cyclic_descent_counts(args.n)
        texts = _palindrome_text(values[:-1]) + [str(values[-1])]
    else:
        texts = _palindrome_text(eulerian_row(args.n))
    kind = "cyclic" if args.cyclic else "row"
    payload = {"n": args.n, "kind": kind, "values": texts}
    rows = list(enumerate(texts, start=1))
    return payload, ("index", "value"), rows, _params(args), 0


def _add_output_flags(sub) -> None:
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--out", default=None, help="write here plus a .manifest.json sidecar")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shufflestats",
        description="Exact descent statistics under iterated-shuffle measures.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    dist = subs.add_parser("dist", help="exact pmf of a statistic under a measure")
    dist.add_argument("--measure", choices=("R", "C"), required=True)
    dist.add_argument("--stat", choices=("d", "c", "parsimony"), default="d")
    dist.add_argument("--k", type=int, required=True)
    dist.add_argument("--n", type=int, required=True)
    _add_output_flags(dist)
    dist.set_defaults(handler=_cmd_dist)

    moments = subs.add_parser("moments", help="exact moments, with asymptotics on request")
    moments.add_argument("--measure", choices=("R", "C"), required=True)
    moments.add_argument("--stat", choices=("d", "c"), default="d")
    moments.add_argument("--k", type=int, required=True)
    moments.add_argument("--n", type=int, required=True)
    moments.add_argument(
        "--asymptotic",
        action="store_true",
        help="include the large-n approximation columns when the rate allows",
    )
    _add_output_flags(moments)
    moments.set_defaults(handler=_cmd_moments)

    tv = subs.add_parser("tv", help="certified total-variation distance to Poisson")
    tv.add_argument("--statistic", choices=STATISTIC_CODES + ("all",), default="all")
    tv.add_argument("--k", type=int, default=None)
    tv.add_argument("--n", type=int, default=None)
    tv.add_argument("--grid", action="store_true", help="sweep the certification table")
    tv.add_argument(
        "--n-list",
        type=lambda text: [int(v) for v in text.split(",")],
        default=[20, 50, 100, 200, 400],
    )
    tv.add_argument("--k-points", type=int, default=20)
    _add_output_flags(tv)
    tv.set_defaults(handler=_cmd_tv)

    sample = subs.add_parser("sample", help="insertion sampler with goodness of fit")
    sample.add_argument("--measure", choices=("R", "C"), required=True)
    sample.add_argument("--k", type=int, required=True)
    sample.add_argument("--n", type=int, required=True)
    sample.add_argument("--count", type=int, required=True)
    sample.add_argument("--seed", required=True, help="64-bit integer or 'auto'")
    sample.add_argument("--streams", type=int, default=8)
    sample.add_argument("--stat", choices=("d", "c", "parsimony"), default="d")
    _add_output_flags(sample)
    sample.set_defaults(handler=_cmd_sample)

    riffle = subs.add_parser("riffle", help="physical riffle simulation cross-check")
    riffle.add_argument("--n", type=int, required=True)
    riffle.add_argument("--rounds", type=int, required=True)
    riffle.add_argument("--count", type=int, required=True)
    riffle.add_argument("--seed", required=True, help="64-bit integer or 'auto'")
    _add_output_flags(riffle)
    riffle.set_defaults(handler=_cmd_riffle)

    diagnostic = subs.add_parser(
        "diagnostic", help="regression-remainder table for the rotation pair"
    )
    diagnostic.add_argument("--n-lo", type=int, default=4)
    diagnostic.add_argument("--n-hi", type=int, default=14)
    _add_output_flags(diagnostic)
    diagnostic.set_defaults(handler=_cmd_diagnostic)

    verify = subs.add_parser("verify", help="run the cross-module identity suites")
    verify.add_argument(
        "--oracle-max",
        type=int,
        default=DEFAULT_ORACLE_MAX,
        help="enumeration cap (default: %(default)s)",
    )
    verify.add_argument("--k-max", type=int, default=12)
    verify.add_argument("--n-max", type=int, default=8)
    verify.add_argument("--inject-fault", choices=FAULT_MODES, default=None)
    _add_output_flags(verify)
    verify.set_defaults(handler=_cmd_verify)

    eulerian = subs.add_parser("eulerian", help="one Eulerian row, exact big integers")
    eulerian.add_argument("--n", type=int, required=True)
    eulerian.add_argument(
        "--cyclic", action="store_true", help="cyclic-count row instead of the Eulerian row"
    )
    _add_output_flags(eulerian)
    eulerian.set_defaults(handler=_cmd_eulerian)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        payload, header, rows, params, code = args.handler(args)
        if args.format == "json":
            text = _render_json(payload)
        else:
            text = _render_csv(header, rows)
        _emit(text, args, params, started)
        return code
    except UserInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
