"""Command-line surface: formats, manifests, exit codes."""

import csv
import hashlib
import io
import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shufflestats import cli, measures, sampler
from shufflestats.eulerian import cyclic_descent_counts, eulerian_row
from shufflestats.measures import d_pmf_R
from shufflestats.pair import DIAGNOSTIC_N_MAX
from shufflestats.sampler import DEFAULT_STREAMS
from shufflestats.verify import DEFAULT_K_MAX, DEFAULT_N_MAX, DEFAULT_ORACLE_MAX


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def exact_law(payload):
    """The exact_pmf of a sample or riffle payload, as value -> Fraction."""
    return {int(v): Fraction(text) for v, text in payload["exact_pmf"].items()}


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

    @pytest.mark.parametrize(
        "measure, stat, k, n",
        [(m, s, "2", n) for m, s in (("C", "c"), ("C", "d"), ("R", "d")) for n in ("0", "-3")]
        + [("C", "c", "2", "1"), ("C", "d", "2", "1")]
        + [(m, s, "0", "5") for m, s in (("C", "c"), ("C", "d"), ("R", "d"))],
    )
    def test_bad_input_exits_2(self, capsys, measure, stat, k, n):
        code, out, err = run_cli(
            capsys, "moments", "--measure", measure, "--stat", stat, "--k", k, "--n", n
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestOutPath:
    ARGV = ("dist", "--measure", "R", "--k", "2", "--n", "3")

    def _assert_refused(self, capsys, out_path, named):
        code, out, err = run_cli(capsys, *self.ARGV, "--out", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert str(named) in err

    def test_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json"
        self._assert_refused(capsys, target, target)

    def test_directory_as_path_exits_2(self, tmp_path, capsys):
        self._assert_refused(capsys, tmp_path, tmp_path)

    def test_unwritable_manifest_exits_2(self, tmp_path, capsys):
        target = tmp_path / "x.json"
        (tmp_path / "x.json.manifest.json").mkdir()
        self._assert_refused(capsys, target, f"{target}.manifest.json")

    def test_written_bytes_and_manifest(self, tmp_path, capsys):
        _, stdout, _ = run_cli(capsys, *self.ARGV)
        data = stdout.encode()
        target = tmp_path / "x.json"
        assert run_cli(capsys, *self.ARGV, "--out", str(target)) == (0, "", "")
        assert target.read_bytes() == data
        text = (tmp_path / "x.json.manifest.json").read_text()
        manifest = json.loads(text)
        assert text == json.dumps(manifest, indent=2) + "\n"
        assert list(manifest) == [
            "tool", "version", "subcommand", "parameters", "wall_time_seconds", "outputs"
        ]
        assert manifest["outputs"] == [
            {"path": str(target), "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
        ]


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

    def test_grid_with_huge_k_points_is_fast_and_unchanged(self, capsys):
        # At n = 20 every k-points value >= 5 sweeps all of k = 1..5.
        grid = ("tv", "--grid", "--n-list", "20", "--statistic", "R", "--k-points")
        _, want, _ = run_cli(capsys, *grid, "5")
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *grid, "1000000000")
        assert time.perf_counter() - started < 2.0
        assert (code, err, out) == (0, "", want)


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
        assert exact_law(payload) == dict(d_pmf_R(4, 6).items())
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

    def test_streams_default_to_flag_default(self):
        argv = ["sample", "--measure", "R", "--k", "2", "--n", "3", "--count", "1", "--seed", "1"]
        streams = cli._build_parser().parse_args(argv).streams
        assert streams == DEFAULT_STREAMS == 8

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
        assert exact_law(payload) == dict(d_pmf_R(4, 6).items())
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
# Rows drawn by the descent-count walk, recorded before they stopped
# building words: (measure, stat, k, n, count, format, digest).
PINNED_WALK_BYTES = [
    ("C", "c", 50, 200, 2000, "json",
     "6f136536fce38c8566e73cd37349f0d54cdfc0dc4e0375f10fa967c92f71417b"),
    ("C", "c", 50, 200, 2000, "csv",
     "4fc04912bc7e88bf5b88e9fdf64b93bc7aa23c06aa4b0965cc638abb79066d7d"),
    # d >= k is unreachable.
    ("R", "d", 3, 24, 10000, "json",
     "aa081d51836ee7f68035afefb2813c0f671f0e556d1b626b0e492b08653f7298"),
    ("R", "d", 3, 24, 10000, "csv",
     "da699e42db11b591d141c7ecbd7c91706290b3ac7c9236fa358b63a61c0502cc"),
    ("R", "d", 1, 12, 10000, "json",
     "0fb78c5b8d69e68a8e8a72e1298e0e1248fd1d01915b3c57f4655251817440d1"),
    ("R", "d", 1, 12, 10000, "csv",
     "70adb991843f6e671ea48037076415534f6915ae0f82183fb0b134fb4b872e56"),
    ("R", "parsimony", 2**40, 30, 10000, "json",
     "152951e64aa5c4df91cf3b18ad2870a0542d2598e9250cc063644d87f8a60579"),
    ("R", "parsimony", 2**40, 30, 10000, "csv",
     "626b07e8a50fd3c3d7197d0809f69d304188ae6687aff9cbe57df855d2770e79"),
    ("C", "parsimony", 2**40, 30, 10000, "json",
     "c82cef829c40b3c8471be9f4751eebcb814f74028648a8255f1b32094892edd6"),
    ("C", "parsimony", 2**40, 30, 10000, "csv",
     "ce58e59aaec5c84c3e95afcf568fc74f52ae1f9101aad5230202be7e932f3fb6"),
    # C/d, recorded while it still built and rotated whole words.
    ("C", "d", 10, 52, 2000, "json",
     "f980988d6fdf25347cd61212cf0de39b5811bee17d8b6c8dbe6f4b20c9f71266"),
    ("C", "d", 10, 52, 2000, "csv",
     "84a87875220b368ff623e023de81c1140b1d4bc44698b48c65c7c7f4f60d7b25"),
    ("C", "d", 50, 200, 500, "json",
     "2b1e5a622c555b6ffdcecbae5274fbd55456b1ff066364b6093bf0b566c5105f"),
    ("C", "d", 50, 200, 500, "csv",
     "5992b09669e03894334dc599502cb4831ff02c65581b6bd708045b855b446a30"),
]
# A full deck, recorded while each round took two argsorts.
RIFFLE_52_ARGV = ("riffle", "--n", "52", "--rounds", "7", "--count", "5000", "--seed", "7")
RIFFLE_52_SHA256 = "b64232138d6edb44320213a694074d17c86614830ae35fdf3cf0f1e0865f75f3"


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

    @pytest.mark.parametrize(
        "measure, stat, k, n, count, fmt, digest",
        PINNED_WALK_BYTES,
        ids=[f"{m}-{s}-k{k}-n{n}-{f}" for m, s, k, n, _, f, _ in PINNED_WALK_BYTES],
    )
    def test_walk_rows(self, capsys, measure, stat, k, n, count, fmt, digest):
        # The later --count overrides the one in SAMPLE_ARGS.
        argv = [*_sample_argv(measure, stat, k, n, fmt), "--count", str(count)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_riffle(self, capsys):
        code, out, err = run_cli(capsys, *RIFFLE_ARGV)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == RIFFLE_SHA256

    def test_riffle_full_deck(self, capsys):
        code, out, err = run_cli(capsys, *RIFFLE_52_ARGV)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == RIFFLE_52_SHA256


# Stdout SHA-256 of `dist` at n = 250 for the five (measure, statistic)
# pairs, recorded before the laws moved to integer numerators over one
# denominator.
PINNED_DIST_BYTES = [
    ("R", "d", 40, "json", "38741da6be939274541be2a158d2f22d2440e8b4caf8544f7731296c9acb04c3"),
    ("R", "d", 40, "csv", "4b25ba8379ed7d3214b7c16973dab0ca3fd33fe1af6867b6cd848c4791d94072"),
    ("C", "d", 180, "json", "9d50d4c78dc18c69849767db388f197429ac8cb27e946a534540834155d91e35"),
    ("C", "d", 180, "csv", "f12b6890ebe8d9a73a42aed171caa87e18a7601608e010ce215069556fe4349c"),
    ("C", "c", 250, "json", "14e02172f92fa6a01775ca7251c48717f14ee7f9229ae8eefcf832dd5ccd9878"),
    ("C", "c", 250, "csv", "93a9b67ab0f6bcf3e4b74029ad68e27c643b896e8a865d8e96786bfe4dcac3ce"),
    ("R", "parsimony", 2**30, "json",
     "af16f4e16508248ee7b4de0c5aae8565e0b39e5027050fd4896996696bf2a219"),
    ("R", "parsimony", 2**30, "csv",
     "f7bb0076ff35befb20a499e5b1a630d9b6681417e717ec455bb14764420f03fb"),
    ("C", "parsimony", 64, "json",
     "da021acd557a4e7d2ca541739ab0d7eb184645cfcb8f59969fd7ba651ca7804e"),
    ("C", "parsimony", 64, "csv",
     "e0349a60720444fb7315756e872b0e4fda6ef562a80217e3044cc91b7d10a984"),
]


@pytest.mark.parametrize(
    "measure, stat, k, fmt, digest",
    PINNED_DIST_BYTES,
    ids=[f"{m}-{s}-{f}" for m, s, _, f, _ in PINNED_DIST_BYTES],
)
def test_pinned_dist_bytes(capsys, measure, stat, k, fmt, digest):
    code, out, err = run_cli(
        capsys, "dist", "--measure", measure, "--stat", stat, "--k", str(k), "--n", "250",
        "--format", fmt,
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_dist_renders_only_the_asked_format(capsys, monkeypatch, fmt):
    calls = Counter()
    for name in ("_reduced_atoms", "_pmf_json"):
        original = getattr(cli, name)

        def counted(arg, _name=name, _original=original):
            calls[_name] += 1
            return _original(arg)

        monkeypatch.setattr(cli, name, counted)
    code, _, _ = run_cli(capsys, "dist", "--measure", "C", "--k", "3", "--n", "5", "--format", fmt)
    assert code == 0
    want = {"_reduced_atoms": 1, "_pmf_json": 1} if fmt == "json" else {"_reduced_atoms": 1}
    assert calls == want


# Two commands at k far above n whose loops ran over k: the power sums
# of `moments` and the Poisson walk of `tv` (1 to 2 s each before, a few
# ms now). Stdout SHA-256 recorded before the change.
LARGE_K_COMMANDS = [
    (("moments", "--measure", "C", "--stat", "c", "--k", "1048576", "--n", "9"),
     "36da25f651b7a0d3da874330447b199b21cfe4c3285cb433fa5acbf4ea1add41"),
    (("moments", "--measure", "R", "--stat", "d", "--k", "3000000", "--n", "3", "--asymptotic"),
     "ecafdfd31ed458607db61126c53251381322d97a4cb7b161acaaae02237122cc"),
    (("tv", "--statistic", "R", "--k", "200000", "--n", "10"),
     "769e8e592506d83ae838090b45c2169132c69f51ad1ad3263cd0e8369730d747"),
    (("tv", "--statistic", "Cd", "--k", "131072", "--n", "12", "--format", "csv"),
     "e6078f7e8d6f01430d8e740359b941df2ecd76d8540c2c286edcd59ca9e6a931"),
]


@pytest.mark.parametrize(
    "argv, digest", LARGE_K_COMMANDS, ids=["moments-C-c", "moments-R-d", "tv-R", "tv-Cd"]
)
def test_large_k_commands_are_fast_and_unchanged(capsys, argv, digest):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - started
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert elapsed < 0.5


# Stdout SHA-256 of `moments` for the three pairs, recorded before the
# reports shared one pair of power sums: alpha above and below the
# asymptotic threshold, and k >> n on the Bernoulli power-sum route.
PINNED_MOMENTS_BYTES = [
    ("C", "c", 50, 50, "json", False,
     "f0eaf99684491b570ad1c1e3499b8c0f31ea8b22480018afeaeb29d71f9d305b"),
    ("C", "c", 50, 50, "json", True,
     "625361c34421da612780818d09c57ec9a7baedcc1d4534651b7262172d5643d1"),
    ("C", "c", 50, 50, "csv", False,
     "f5f3d413ddc07ef48dfd22becf5aa982d563a86da2321be4eaed7e73f3e651d2"),
    ("C", "c", 50, 50, "csv", True,
     "7c90a1043448cf7d5c73bce63edc688b76b363ff4c0ffed35a404fa90e16e81c"),
    ("C", "c", 300, 750, "json", False,
     "d62741cafb4f64b7810460540602297867ac7840fde9812077f7d2283aab9869"),
    ("C", "c", 300, 750, "json", True,
     "b807b1d007197c1edcb230f9a32205020aab368cecaebe04108ee25aa834d996"),
    ("C", "c", 300, 750, "csv", False,
     "5d6d0d0e29541a79b5d53279de7e7e45abfa59da6c5f4de0d237d30bbf9550b9"),
    ("C", "c", 300, 750, "csv", True,
     "d7b0322786108fea03b693b3c92878edfdb42df3128db1879e27301ad742c690"),
    ("C", "c", 13, 200, "json", False,
     "8aee7d8ca32b1c555149eecaaf3e7f85df631c8dc5b48cc09d2618d49b9ab225"),
    ("C", "c", 13, 200, "json", True,
     "750678d6572fcf47a3f7154485bbc4b315f7f4719a011f4fc0b60af8693ab065"),
    ("C", "c", 13, 200, "csv", False,
     "561a3416e55d1ba0549c4d3c65bdcd5e8ffb5313428f7c5b9a8b7368da61e781"),
    ("C", "c", 13, 200, "csv", True,
     "7849f88cad74b4740420ea779c6b04ede2034c9531eeb5b840088fa57e0624ec"),
    ("C", "c", 2**20, 9, "json", False,
     "36da25f651b7a0d3da874330447b199b21cfe4c3285cb433fa5acbf4ea1add41"),
    ("C", "c", 2**20, 9, "json", True,
     "fe9654493bd864d0d773374dfb87c35dcf5c5fa25fffc8d55f097907e16c1474"),
    ("C", "c", 2**20, 9, "csv", False,
     "aef9d698d3ee7d320ff452b3511b1a449f8182ea7aea3d0d10a9f356ead34bf9"),
    ("C", "c", 2**20, 9, "csv", True,
     "6ae07be3d8c960f3cea443e93ff3fcacbecf245f2aeaa39a8f360844b844cf54"),
    ("C", "d", 50, 50, "json", False,
     "04daa4bd33059b55b5ba11e48b2b195bff73ad90fdefc4779070c8ade2e8df1d"),
    ("C", "d", 50, 50, "json", True,
     "a4080347e99a45d0d131b7e17b97a874bef597149dec8236c416f151520ff1bf"),
    ("C", "d", 50, 50, "csv", False,
     "eb683812b4c3680f9035cca0858eb552ddfa85b09132704afce70ba55672c598"),
    ("C", "d", 50, 50, "csv", True,
     "81f55c5fcac215fb44ffe8d58dcc6e86efab1ba2bb40eed3e5505037c6d14c04"),
    ("C", "d", 300, 750, "json", False,
     "909e4bed30fcd48120698300bcd837cf220d7507f8dc50645b4c89aa68335f74"),
    ("C", "d", 300, 750, "json", True,
     "80b0a28ba3e799920fa41cc59099ba25b34cf466a002840de0058a153218df56"),
    ("C", "d", 300, 750, "csv", False,
     "a9b48eba6937f4715554635bd4af085b3b81fb629026abe4325ab572b1543834"),
    ("C", "d", 300, 750, "csv", True,
     "8452f1b329c4bb3330f3b558733d9222b5d300b15ac77cf0bf5b14f4fcd62c44"),
    ("C", "d", 13, 200, "json", False,
     "814c77672436d5ad21016734973c261f0127672aeaa94a12c94b7c889c8eb468"),
    ("C", "d", 13, 200, "json", True,
     "4d999757d1e556302bb02d1d9348c3eda0595060d3b4bb15c284e0c4a63f5631"),
    ("C", "d", 13, 200, "csv", False,
     "7d66f8dec2c75aeb2fa442d5336418d51ace52e779f7a661ab8f8f102c4d33bd"),
    ("C", "d", 13, 200, "csv", True,
     "4197c242579e56634c7fc49b133cd6aaca5982de32efbc86bc12edce4eae0d26"),
    ("C", "d", 2**20, 9, "json", False,
     "047207ec30b4e3f95aa71a45976c100625adebbe7eb330153dcf0737d890a7b4"),
    ("C", "d", 2**20, 9, "json", True,
     "45781459e9355dc205f7bc77fe789e5c5cdc69bd6425e02a502e50f14cf12766"),
    ("C", "d", 2**20, 9, "csv", False,
     "312cd503c622dd7f49b2fb1299e3ce8527ad8ca45a4488107a5cd3cb9a5b21fb"),
    ("C", "d", 2**20, 9, "csv", True,
     "e0978eeb2063929e00cd8f7443f8928a40fb4b6f1e17bba30d1d39510c39575c"),
    ("R", "d", 50, 50, "json", False,
     "c98db34c538f7b2c3a7070c4c6673c9e9774b31581185807b37d5e327cc0931d"),
    ("R", "d", 50, 50, "json", True,
     "7bae8ced6769b6a547a07e640d0ce2b7a9b895fc36dd3e501612d9328e055780"),
    ("R", "d", 50, 50, "csv", False,
     "2ab1806319ad047e0014fc2e7997f985c064156f07f53b6704e44dd72e4137b9"),
    ("R", "d", 50, 50, "csv", True,
     "1bb754ea96e2cb692dbb00e8bcf6ff66ac32b8fe64bad8a3742d16f223b43496"),
    ("R", "d", 300, 750, "json", False,
     "cb6818193c582b0e04feb9c09bbb3e94a3645bab08b355ed235d1c344cf138e7"),
    ("R", "d", 300, 750, "json", True,
     "5d3900509f769c680d8aa6291cf6d78d30486c6a365229a451dd05973be10863"),
    ("R", "d", 300, 750, "csv", False,
     "34ed168afc7076d5e2ad8381481af572ba889f877cc7c34565b8d5383bac2cb7"),
    ("R", "d", 300, 750, "csv", True,
     "d982d59c29851d8acc2ed8f0d35cce505ba7482e7c9c80e6ef0edc7a44a69409"),
    ("R", "d", 13, 200, "json", False,
     "f0a53473f110b6479a36adddb362a3dbf04d3a181ef2c3bebdeebe1705120d96"),
    ("R", "d", 13, 200, "json", True,
     "c14ae1918cbde28fabfd6c1f63e138044b4e5063fb11d1f1b1d72a73ce2fa0d1"),
    ("R", "d", 13, 200, "csv", False,
     "43dc4f0295d922cdc76f95b7a8f43d90ef978857aef876df618b601e30c86a8d"),
    ("R", "d", 13, 200, "csv", True,
     "faa3b20303741ce9662a9e33e8296cfed1cc2934538aa444223f16b73b1a9c6d"),
    ("R", "d", 2**20, 9, "json", False,
     "f668dd3e2a63205a2db82ccb00561ab6065eef10d640a2e2fdfbe53da98a00b8"),
    ("R", "d", 2**20, 9, "json", True,
     "0c9df165f5b3fc98b4180db1fa43d48a75ae1b6127e16273a4508c7f930ecf06"),
    ("R", "d", 2**20, 9, "csv", False,
     "b72b7e3b877d834d7acc627cb22019314871997baf01d504d23bbb7c78d1bb7f"),
    ("R", "d", 2**20, 9, "csv", True,
     "a9164a298febc0d4197f22e1fd841e48e57c6cbe7fdf00f09d7545135e0be361"),
]


@pytest.mark.parametrize(
    "measure, stat, k, n, fmt, asym, digest",
    PINNED_MOMENTS_BYTES,
    ids=[f"{m}-{s}-{k}-{n}-{f}{'-asym' if a else ''}" for m, s, k, n, f, a, _ in PINNED_MOMENTS_BYTES],
)
def test_pinned_moments_bytes(capsys, measure, stat, k, n, fmt, asym, digest):
    argv = ["moments", "--measure", measure, "--stat", stat, "--k", str(k), "--n", str(n),
            "--format", fmt] + (["--asymptotic"] if asym else [])
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Stdout SHA-256 of `tv` and `diagnostic`, recorded while the library
# still built their rows: a single tv point, a tv grid and the default
# diagnostic table, each in both formats.
TV_R_ARGV = ("tv", "--statistic", "R", "--k", "1", "--n", "9")
TV_GRID_ARGV = ("tv", "--grid", "--n-list", "20,50", "--k-points", "4")
PINNED_TABLE_BYTES = [
    (TV_R_ARGV, "json", "8f571e545baef141ec015467353d1371e6f6b38425e368425aa12c867e2e984c"),
    (TV_R_ARGV, "csv", "07dd26c53054b34feb3d82ef2c84d2d461ec3e22e036cb36194372ff0fb44083"),
    (TV_GRID_ARGV, "json", "a63b1ddd5328a4b617a03bc905360d2dde64096af5d781ef330e2cdb56ddd6c1"),
    (TV_GRID_ARGV, "csv", "01e112d494d6d7cfea9058cf27a0b9cbf9e2b48f323684637992ecda477e37e0"),
    (("diagnostic",), "json", "f6f21e79d9bf3ee3ef97197fef932c1053cc0d7e7e890192a561ac3a9bffb253"),
    (("diagnostic",), "csv", "0024e691e505480fa8a1c2bf17ffdc0967c345c7d113ac1d25e19283c5f8ea1e"),
]


@pytest.mark.parametrize(
    "argv, fmt, digest",
    PINNED_TABLE_BYTES,
    ids=["tv-R-json", "tv-R-csv", "tv-grid-json", "tv-grid-csv", "diagnostic-json",
         "diagnostic-csv"],
)
def test_pinned_table_bytes(capsys, argv, fmt, digest):
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            ((), 0, "0bc79f22b26e5044c7efa92e26b5ddd300319c959bc6c43b397501e3107f9b54"),
            (("--format", "csv"), 0,
             "f1a872fbeed7ae248a72c8ad3e9f762aad3edeeb41aaa8d854b3f15dcc9be837"),
            (("--oracle-max", "5"), 0,
             "5d631263a9e3c208999a0cdcdd242130649ab4fbe6fb71fb622592b6cf53966d"),
            (("--oracle-max", "4", "--inject-fault", "transfer"), 3,
             "f8d51d761f644f472cee8664c69d2e9b4904d45ea6d9d05561b789632a803d2d"),
        ],
        ids=["json", "csv", "oracle-5", "oracle-4-fault"],
    )
    def test_pinned_bytes(self, capsys, argv, code, digest):
        # The output carries every suite's check count.
        got, out, err = run_cli(capsys, "verify", *argv)
        assert (got, err) == (code, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_oracle_cap_defaults_to_flag_default(self):
        assert cli._build_parser().parse_args(["verify"]).oracle_max == DEFAULT_ORACLE_MAX == 7

    def test_grid_defaults_to_flag_defaults(self):
        args = cli._build_parser().parse_args(["verify"])
        assert (args.k_max, args.n_max) == (DEFAULT_K_MAX, DEFAULT_N_MAX) == (12, 8)

    @pytest.mark.parametrize(
        "grid",
        [("--k-max", "100000"), ("--n-max", "100000"), ("--k-max", "100", "--n-max", "100")],
    )
    def test_grid_past_the_limit_exits_2(self, capsys, grid):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *grid)
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--k-max" in err and "--n-max" in err

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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "n, cyclic",
        [(n, False) for n in (1, 2, 3, 4, 5, 50, 51)]
        + [(n, True) for n in (2, 3, 4, 5, 50, 51)],
    )
    def test_every_entry_renders_as_its_str(self, capsys, n, cyclic, fmt):
        # Only half of a palindromic row is converted to text and mirrored.
        row = cyclic_descent_counts(n) if cyclic else eulerian_row(n)
        want = [str(v) for v in row]
        argv = ["eulerian", "--n", str(n), "--format", fmt] + ["--cyclic"] * cyclic
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["values"] == want
        else:
            rows = list(csv.reader(out.splitlines()))
            assert rows == [["index", "value"]] + [
                [str(i), v] for i, v in enumerate(want, start=1)
            ]

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

    @pytest.mark.parametrize("n_hi", [DIAGNOSTIC_N_MAX + 1, 400, 100000])
    def test_range_past_the_limit_exits_2(self, capsys, n_hi):
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "diagnostic", "--n-hi", str(n_hi))
        assert time.perf_counter() - started < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "--n-hi" in err


_CSV_CELLS = st.one_of(
    st.none(),
    st.floats(),
    st.integers(),
    st.text(alphabet=',"\r\n 0123456789', max_size=6),
)


class TestCsvRendering:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.text(alphabet=',"\r\n ab', max_size=4), max_size=4),
        st.lists(st.lists(_CSV_CELLS, max_size=4), max_size=5),
    )
    def test_matches_csv_writer(self, header, rows):
        def text(cell):
            if cell is None:
                return ""
            return cli._fmt_float(cell) if isinstance(cell, float) else str(cell)

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([text(cell) for cell in row])
        assert cli._render_csv(header, rows) == buffer.getvalue()


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

    def test_exact_commands_leave_numpy_unloaded(self):
        # Only the samplers import numpy; it costs an exact command about
        # 13 MB and a tenth of a second.
        script = (
            "import contextlib, io, sys\n"
            "from shufflestats.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in (\n"
            "        ['dist', '--measure', 'C', '--stat', 'd', '--k', '3', '--n', '6'],\n"
            "        ['moments', '--measure', 'R', '--k', '3', '--n', '6'],\n"
            "        ['tv', '--statistic', 'Cc', '--k', '3', '--n', '20'],\n"
            "        ['eulerian', '--n', '6', '--cyclic'])]\n"
            "print(codes, 'numpy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0] False\n"

    def test_import_defers_every_heavy_module(self):
        # Each is loaded by the first command that uses it: mpmath by the
        # Stein side and the asymptotics, numpy and the thread pool (which
        # imports logging) by the samplers, hashlib by --out and secrets by
        # --seed auto. The package modules stay eager: the benchmark looks
        # them up in sys.modules.
        script = (
            "import sys, shufflestats.cli\n"
            "heavy = ('mpmath', 'numpy', 'concurrent.futures', 'logging', 'hashlib', 'secrets')\n"
            "print([name for name in heavy if name in sys.modules])\n"
            "ours = ('measures', 'moments', 'stein', 'sampler', 'pair', 'verify')\n"
            "print([name for name in ours if 'shufflestats.' + name not in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n[]\n"

    def test_integer_commands_leave_mpmath_unloaded(self):
        # The generating-function side needs only integer arithmetic, and
        # exact moments leave the asymptotic series unevaluated.
        script = (
            "import contextlib, io, sys\n"
            "from shufflestats.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [main(argv) for argv in (\n"
            "        ['dist', '--measure', 'C', '--stat', 'parsimony', '--k', '4', '--n', '6'],\n"
            "        ['dist', '--measure', 'R', '--k', '3', '--n', '5', '--format', 'csv'],\n"
            "        ['eulerian', '--n', '9'],\n"
            "        ['eulerian', '--n', '6', '--cyclic'],\n"
            "        ['diagnostic'],\n"
            "        ['moments', '--measure', 'C', '--stat', 'c', '--k', '50', '--n', '50'],\n"
            "        ['verify', '--oracle-max', '4'])]\n"
            "print(codes, 'mpmath' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0, 0, 0, 0, 0] False\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shufflestats.cli",
             "dist", "--measure", "R", "--k", "2", "--n", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"0": "3/4", "1": "1/4"}\n'
