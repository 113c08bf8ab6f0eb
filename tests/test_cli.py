"""Command-line surface: formats, manifests, exit codes."""

import csv
import hashlib
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from shufflestats import cli, d_pmf_R, measures, sampler


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDist:
    def test_json_output_is_byte_stable(self, capsys):
        code, out, err = run_cli(
            capsys, "dist", "--measure", "R", "--k", "2", "--n", "2"
        )
        assert code == 0
        assert out == '{"0": "3/4", "1": "1/4"}\n'
        assert err == ""

    def test_csv_output_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "dist", "--measure", "C", "--k", "2", "--n", "3",
            "--stat", "c", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["value", "numerator", "denominator", "probability"]
        assert rows[1] == ["1", "3", "4", "0.75"]
        assert rows[2] == ["2", "1", "4", "0.25"]

    def test_parsimony_statistic(self, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--measure", "R", "--k", "2", "--n", "2",
            "--stat", "parsimony",
        )
        assert code == 0
        assert json.loads(out) == {"0": "3/4", "1": "1/4"}

    def test_cyclic_under_shuffle_measure_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--measure", "R", "--k", "2", "--n", "5", "--stat", "c"
        )
        assert code == 2
        assert err.startswith("error:")
        assert "measure 'C'" in err

    def test_bad_k_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "dist", "--measure", "R", "--k", "0", "--n", "3"
        )
        assert code == 2
        assert err.startswith("error:")

    def test_unknown_choice_exits_2_via_argparse(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["dist", "--measure", "Z", "--k", "1", "--n", "2"])
        assert info.value.code == 2
        capsys.readouterr()


class TestMoments:
    def test_exact_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--measure", "C", "--stat", "c", "--k", "2", "--n", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_exact"] == "5/4"
        assert payload["second_exact"] == "7/4"
        assert payload["variance_exact"] == "3/16"
        # floats travel as 17-significant-digit strings
        assert payload["mean_float"] == "1.25"
        assert float(payload["variance_float"]) == 0.1875

    def test_asymptotics_below_threshold_are_null(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--measure", "C", "--stat", "c", "--k", "2", "--n", "100",
            "--asymptotic",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_asym"] is None
        assert payload["error_mean"] is None

    def test_asymptotics_in_linear_regime(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "moments", "--measure", "C", "--stat", "c", "--k", "50", "--n", "50",
            "--asymptotic",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_asym"] is not None
        assert abs(float(payload["error_mean"])) < 1e-3

    def test_shuffle_side_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--measure", "R", "--stat", "d", "--k", "2", "--n", "2"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mean_exact"] == "1/4"
        assert payload["variance_exact"] == "3/16"


class TestTv:
    def test_single_point_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "tv", "--statistic", "R", "--k", "1", "--n", "9"
        )
        assert code == 0
        payload = json.loads(out)
        assert float(payload["tv_exact"]) == pytest.approx(
            0.09516258196404043, abs=1e-15
        )
        assert float(payload["bound"]) == pytest.approx(0.21, rel=1e-12)
        assert float(payload["slack"]) > 0

    def test_single_point_requires_k_and_n(self, capsys):
        code, _, err = run_cli(capsys, "tv", "--statistic", "R", "--k", "1")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_grid_rejects_nonpositive_k_points(self, capsys, points):
        code, out, err = run_cli(
            capsys, "tv", "--grid", "--n-list", "20", "--k-points", points
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_grid_rows_are_sorted_and_certified(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "tv", "--grid", "--statistic", "Cd",
            "--n-list", "20,50", "--k-points", "4", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == list(
            ("k", "n", "statistic", "lambda", "tv_exact", "bound", "slack")
        )
        body = rows[1:]
        assert all(row[2] == "Cd" for row in body)
        assert all(float(row[6]) > 0 for row in body)
        keys = [(row[2], int(row[1]), int(row[0])) for row in body]
        assert keys == sorted(keys)


class TestSample:
    def test_json_payload_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sample", "--measure", "R", "--k", "4", "--n", "6",
            "--count", "20000", "--seed", "20260816",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {
            "histogram",
            "empirical_pmf",
            "exact_pmf",
            "per_bin_z",
            "chi_square",
            "p_value",
            "max_bin_z",
        }
        assert sum(payload["histogram"].values()) == 20000
        assert payload["exact_pmf"] == d_pmf_R(4, 6).to_json_dict()
        assert float(payload["p_value"]) > 0.001

    def test_csv_and_manifest(self, tmp_path, capsys):
        out_file = tmp_path / "sample.csv"
        code, stdout, _ = run_cli(
            capsys,
            "sample", "--measure", "R", "--k", "2", "--n", "4",
            "--count", "5000", "--seed", "7",
            "--format", "csv", "--out", str(out_file),
        )
        assert code == 0
        assert stdout == ""
        data = out_file.read_bytes()
        rows = list(csv.reader(data.decode().splitlines()))
        assert rows[0] == ["value", "count", "empirical", "exact_num", "exact_den", "z"]
        counts = [int(row[1]) for row in rows[1:]]
        assert sum(counts) == 5000
        exact = {int(r[0]): Fraction(int(r[3]), int(r[4])) for r in rows[1:]}
        assert exact == {v: m for v, m in d_pmf_R(2, 4).items()}

        manifest = json.loads((tmp_path / "sample.csv.manifest.json").read_text())
        assert manifest["tool"] == "shufflestats"
        assert manifest["subcommand"] == "sample"
        assert manifest["parameters"]["seed"] == 7
        assert manifest["outputs"][0]["bytes"] == len(data)
        assert manifest["outputs"][0]["sha256"] == hashlib.sha256(data).hexdigest()

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out_file = tmp_path / name
            code, _, _ = run_cli(
                capsys,
                "sample", "--measure", "C", "--k", "3", "--n", "5",
                "--count", "8000", "--seed", "99", "--stat", "c",
                "--format", "csv", "--out", str(out_file),
            )
            assert code == 0
            blobs.append(out_file.read_bytes())
        assert blobs[0] == blobs[1]

    def test_auto_seed_is_drawn_and_recorded(self, tmp_path, capsys):
        out_file = tmp_path / "auto.json"
        code, _, _ = run_cli(
            capsys,
            "sample", "--measure", "R", "--k", "2", "--n", "3",
            "--count", "1000", "--seed", "auto", "--out", str(out_file),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "auto.json.manifest.json").read_text())
        drawn = manifest["parameters"]["seed"]
        assert isinstance(drawn, int)
        assert 0 <= drawn < 2**64

    def test_bad_seed_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "sample", "--measure", "R", "--k", "2", "--n", "3",
            "--count", "100", "--seed", "nope",
        )
        assert code == 2
        assert "seed" in err

    def test_undersized_sample_with_underflowing_mass_exits_2(self, capsys):
        # P(d = 199) = 200^-200 is 0.0 as a float; the fit must reject the
        # 10-draw sample, not divide by its float variance
        code, out, err = run_cli(
            capsys,
            "sample", "--measure", "R", "--k", "200", "--n", "200",
            "--count", "10", "--seed", "1", "--streams", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: undersized sample")


class TestRiffle:
    def test_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "riffle", "--n", "6", "--rounds", "2", "--count", "20000",
            "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["exact_pmf"] == d_pmf_R(4, 6).to_json_dict()
        assert float(payload["p_value"]) > 0.001


# Stdout SHA-256 of `sample` and `riffle` at fixed seeds. Any change to
# a draw, the fit or the rendering moves one of these.
SAMPLE_ARGS = ("--count", "10000", "--seed", "20261018", "--streams", "3")
PINNED_SAMPLE_BYTES = [
    ("R", "d", 4, 6, "json", "94eacfaf67c9d9693417272a44354730c063b2fabafc0a1eaa519e3ea7d07e92"),
    ("R", "d", 4, 6, "csv", "df8991e5d279c08ca1f4ef10f94297c3138f28daf52ac82cb6f9093e044f2ae7"),
    ("C", "d", 5, 6, "json", "f72314f01a6236c0eeca13b6481f3c0d48db6e74ac6cc3388632209365f84a6f"),
    ("C", "d", 5, 6, "csv", "5f4153d4c031fdb43263c5c42f6062e8484712cad3f509c9ed50a89f4275fdc7"),
    ("C", "c", 3, 5, "json", "231eff10f65d84e2080eea9ee803e01f19cc83a39fddb44b15c95e2981048a15"),
    ("C", "c", 3, 5, "csv", "fa3ce56ef0d02e71f907ed0ba56c0c092ac639b5a0de170928b9c4518f270a02"),
    ("R", "parsimony", 8, 6, "json",
     "584fc9c6dc0cc394a075f27bf4558ed55390033145af01f8cfdfaaeecde16a90"),
    ("R", "parsimony", 8, 6, "csv",
     "e8b408a2f418a8b876526048900ae807612984921106ed3bfcc5abb16c42849f"),
    ("C", "parsimony", 8, 6, "json",
     "aef2366437020a022b9a366ce23e4d509301614a40f58e0d353d8b37618942b1"),
    ("C", "parsimony", 8, 6, "csv",
     "15f7d7971e8a33c5db543b5efeada7869a58b4d4dcb199ce58e5a3ddc65f43e9"),
]
RIFFLE_ARGV = ("riffle", "--n", "13", "--rounds", "3", "--count", "10000", "--seed", "7")
RIFFLE_SHA256 = "e07a228896150ef1823db152f786b02a5133c7a84c0fcda2c8d523490e8d8935"


def _sample_argv(measure, stat, k, n, fmt):
    return ("sample", "--measure", measure, "--stat", stat, "--k", str(k), "--n", str(n),
            *SAMPLE_ARGS, "--format", fmt)


class TestPinnedSampleBytes:
    @pytest.mark.parametrize(
        "measure, stat, k, n, fmt, digest",
        PINNED_SAMPLE_BYTES,
        ids=[f"{m}-{s}-{f}" for m, s, _, _, f, _ in PINNED_SAMPLE_BYTES],
    )
    def test_sample(self, capsys, measure, stat, k, n, fmt, digest):
        code, out, err = run_cli(capsys, *_sample_argv(measure, stat, k, n, fmt))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_riffle(self, capsys):
        code, out, err = run_cli(capsys, *RIFFLE_ARGV)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == RIFFLE_SHA256


class TestSampleFitsOnce:
    @pytest.mark.parametrize(
        "argv",
        [_sample_argv("C", "parsimony", 8, 6, "json"), RIFFLE_ARGV],
        ids=["sample", "riffle"],
    )
    def test_exact_law_and_z_scores_are_built_once(self, capsys, monkeypatch, argv):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(sampler, "per_bin_z", counted("z", sampler.per_bin_z))
        monkeypatch.setattr(sampler, "d_pmf_R", counted("law", sampler.d_pmf_R))
        monkeypatch.setattr(
            measures.StatisticLaw, "pmf", counted("law", measures.StatisticLaw.pmf)
        )
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        assert calls == {"law": 1, "z": 1}


class TestVerify:
    def test_clean_run_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--oracle-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert len(payload["suites"]) == 8

    def test_fault_injection_exits_3(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--oracle-max", "3", "--inject-fault", "transfer"
        )
        assert code == 3
        payload = json.loads(out)
        assert payload["all_passed"] is False
        failing = [s for s in payload["suites"] if not s["passed"]]
        assert [s["name"] for s in failing] == ["transfer"]
        assert "transfer fails at k=" in failing[0]["detail"]

    def test_env_var_sets_oracle_cap(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ORACLE_MAX_ENV, "4")
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle_max"] == 4

    def test_flag_beats_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.ORACLE_MAX_ENV, "4")
        code, out, _ = run_cli(capsys, "verify", "--oracle-max", "3")
        assert code == 0
        assert json.loads(out)["oracle_max"] == 3

    def test_oracle_cap_ceiling_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--oracle-max", "12")
        assert code == 2
        assert err.startswith("error:")


class TestEulerian:
    def test_row_values(self, capsys):
        code, out, _ = run_cli(capsys, "eulerian", "--n", "6")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "row"
        assert payload["values"] == ["1", "57", "302", "302", "57", "1"]

    def test_cyclic_counts(self, capsys):
        code, out, _ = run_cli(capsys, "eulerian", "--n", "5", "--cyclic")
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == ["5", "55", "55", "5", "0"]

    def test_csv_rows_are_indexed(self, capsys):
        code, out, _ = run_cli(
            capsys, "eulerian", "--n", "4", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[1:] == [["1", "1"], ["2", "11"], ["3", "11"], ["4", "1"]]

    @pytest.mark.parametrize(
        "argv", [("--n", "0"), ("--n", "-3"), ("--cyclic", "--n", "1")]
    )
    def test_bad_n_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "eulerian", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert f"n = {argv[-1]}" in err

    def test_row_1000_peak_rss_is_bounded(self):
        # The row is stepped up holding two rows at a time; a triangle up to
        # n = 1000 took about 400 MB.
        script = (
            "import contextlib, io, resource, sys\n"
            "from shufflestats.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['eulerian', '--n', '1000'])\n"
            "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        code, peak_kb = map(int, proc.stdout.split())
        assert code == 0
        assert peak_kb < 150 * 1024


class TestDiagnostic:
    def test_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "diagnostic", "--n-lo", "4", "--n-hi", "6"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["n"] for row in payload] == [4, 5, 6]
        assert payload[0]["value_num"] == "3/4"
        values = [float(row["float_value"]) for row in payload]
        assert values == pytest.approx(
            [1.1618950038622251, 0.89566858950296013, 1.2911225172296217],
            abs=1e-12,
        )


class TestFloatRendering:
    def test_seventeen_significant_digits(self, capsys):
        _, out, _ = run_cli(
            capsys, "tv", "--statistic", "R", "--k", "1", "--n", "9"
        )
        payload = json.loads(out)
        # a float rendered at 17 significant digits parses back exactly
        assert float(payload["tv_exact"]) == 0.09516258196404043


class TestConsoleEntry:
    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, shufflestats.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "False\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shufflestats.cli",
             "dist", "--measure", "R", "--k", "2", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"0": "3/4", "1": "1/4"}\n'
