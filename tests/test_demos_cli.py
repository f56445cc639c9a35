"""Demo catalog integrity and command-line front end behavior."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import cli, demos
from cocycle_lab.cli import _build_parser, main, run_demo
from cocycle_lab.demos import demo_by_name, demo_catalog
from cocycle_lab.dynamics import RationalMap

JORDAN_SCENARIO = {
    "semigroup": {"f_num": [[0, 0], [-1, 0]], "f_den": [[1, 0]]},
    "generator": {
        "dim": 2,
        "num_coeffs": [
            [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
            [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
        ],
        "den_coeffs": [[1, 0]],
    },
    "truncation_order": 16,
    "grid": {"t_values": [0.5, 1.0], "z_values": [[0.3, 0], [0.0, 0.4]]},
    "tolerances": {"ode": 1e-11, "sylvester": 1e-10, "resonance": 1e-8},
}

NO_FIXED_POINT = {"f_num": [[1, 0], [-1, 0]]}  # f(z) = 1 - z: Denjoy-Wolff point 1
POLE_AT_HALF = {"den_coeffs": [[1, 0], [-2, 0]]}  # B = P / (1 - 2z)
F_POLE_AT_HALF = {"f_den": [[1, 0], [-2, 0]]}  # f = -z / (1 - 2z)


@pytest.fixture
def scenario_path(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(JORDAN_SCENARIO))
    return str(path)


class TestCatalog:
    def test_size_and_names(self):
        entries = demo_catalog()
        assert len(entries) >= 7
        names = [e.name for e in entries]
        assert len(set(names)) == len(names)
        for required in (
            "linear-scalar-rational",
            "affine-scalar",
            "sqrt-nonexp",
            "jordan-obstruction",
            "resonant-solvable",
            "beta-power",
            "diagonal-linearizable",
        ):
            assert required in names

    def test_jordan_oracle_value(self):
        entry = demo_by_name("jordan-obstruction")
        out = entry.oracle(1.0, 0.5)
        e = np.e
        assert np.allclose(out, [[e, 0.5 * e], [0.0, e * e]])

    def test_oracles_start_at_identity(self):
        for entry in demo_catalog():
            if entry.oracle is None:
                continue
            g0 = entry.oracle(0.0, 0.3)
            assert np.allclose(g0, np.eye(entry.dim), atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            demo_by_name("no-such-demo")

    def test_lookup_builds_one_fresh_entry(self, monkeypatch):
        built = []

        def counting_map(*args):
            built.append(args)
            return RationalMap(*args)

        monkeypatch.setattr(demos, "RationalMap", counting_map)
        entries = [demo_by_name(e.name) for e in demo_catalog()]
        assert len(built) == 2 * len(entries)  # the catalog's, then one per lookup
        assert [e.name for e in entries] == [e.name for e in demo_catalog()]
        assert demo_by_name("jordan-obstruction") is not demo_by_name("jordan-obstruction")


@pytest.mark.parametrize("name", [e.name for e in demo_catalog()])
def test_demo_runs_clean(name):
    report, passed = run_demo(name)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert passed, f"failed checks: {failed}"
    assert report["checks"], "demo must verify something"


@pytest.mark.parametrize(
    "name, key, perturb, label",
    [
        ("affine-scalar", "transfer_map", lambda m: lambda z: m(z) * (1.0 + 1e-6),
         "coboundary_transfer_map"),
        # the [1, 1] entry: the whole of m1 is checked, not one entry
        ("diagonal-linearizable", "m1", lambda m: m + np.diag([0.0, 1e-6]),
         "first_transfer_coefficient"),
    ],
)
def test_moved_demo_expectations_are_live(monkeypatch, name, key, perturb, label):
    def perturbed(demo):
        entry = demo_by_name(demo)
        entry.expected[key] = perturb(entry.expected[key])
        return entry

    assert [c["passed"] for c in run_demo(name)[0]["checks"] if c["check"] == label] == [True]
    monkeypatch.setattr(cli, "demo_by_name", perturbed)
    report, passed = run_demo(name)
    assert not passed
    assert [c["passed"] for c in report["checks"] if c["check"] == label] == [False]


class TestCli:
    def test_evolve_writes_report_and_csv(self, scenario_path, tmp_path, capsys):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "samples.csv"
        code = main(
            [
                "evolve",
                "--scenario",
                scenario_path,
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["command"] == "evolve"
        assert len(report["samples"]) == 4
        assert csv_path.read_text().splitlines()[0] == "t,z_re,z_im,gamma_norm"
        # report JSON round-trips exactly
        assert json.loads(json.dumps(report)) == report

    def test_evolve_lists_samples_in_the_scenarios_time_order(self, tmp_path, capsys):
        reports = []
        for times in ([0.5, 1.0], [1.0, 0.5, 1.0]):
            path = tmp_path / "scn.json"
            path.write_text(json.dumps({**JORDAN_SCENARIO, "grid": {**JORDAN_SCENARIO["grid"], "t_values": times}}))
            assert main(["evolve", "--scenario", str(path)]) == 0
            reports.append(json.loads(capsys.readouterr().out)["samples"])
        ascending, given = reports
        assert [s["t"] for s in given] == [1.0, 1.0, 0.5, 0.5, 1.0, 1.0]
        assert given == ascending[2:] + ascending[:2] + ascending[2:]

    def test_check_passes(self, scenario_path):
        assert main(["check", "--scenario", scenario_path]) == 0

    def test_check_does_not_depend_on_the_truncation_order(self, tmp_path, capsys):
        # f = -z + 0.9 z^2 at z = -0.88, at 0.79 of the Koenigs radius, where
        # the inverse Koenigs series truncated at order 24 or 48 is off by
        # 1.8e-3 or 6.8e-6: the flow, and so the check, must not read it
        scenario = {
            "semigroup": {"f_num": [0, -1, 0.9]},
            "generator": {"dim": 2, "num_coeffs": [[[0.2, 0], [0, 0.5]], [[0, 1], [0.3, 0]]]},
            "grid": {"t_values": [0.1, 0.5], "z_values": [-0.88, 0.3]},
        }
        residuals = []
        for order in (12, 24, 48):
            path = tmp_path / f"order{order}.json"
            path.write_text(json.dumps({**scenario, "truncation_order": order}))
            assert main(["check", "--scenario", str(path)]) == 0
            residuals.append(json.loads(capsys.readouterr().out)["chain_residual"])
        assert residuals[0] == residuals[1] == residuals[2]

    def test_linearize_reports_obstruction(self, scenario_path, tmp_path):
        out = tmp_path / "lin.json"
        code = main(["linearize", "--scenario", scenario_path, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "obstructed"
        assert report["obstructed_at"] == 1
        assert report["violated_k"] == [1]

    def test_spectrum(self, scenario_path, tmp_path):
        out = tmp_path / "spec.json"
        assert main(["spectrum", "--scenario", scenario_path, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["violated_k"] == [1]
        assert "difference_set" not in report and "rank_route_agrees" not in report

    def test_growth_with_radius(self, scenario_path, tmp_path):
        out = tmp_path / "growth.json"
        csv_path = tmp_path / "growth.csv"
        code = main(
            [
                "growth",
                "--scenario",
                scenario_path,
                "--radius",
                "0.4",
                "--tmax",
                "2.0",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_violation"] <= 1e-9
        header = csv_path.read_text().splitlines()[0]
        assert header == "t,z_re,z_im,gamma_norm,bound,violation"

    def test_growth_takes_the_scenario_ode_tolerance(self, scenario_path, tmp_path, monkeypatch):
        tols = []
        make = cli.make_evolve_oracle

        def recording(model, B, tol):
            tols.append(tol)
            return make(model, B, tol=tol)

        monkeypatch.setattr(cli, "make_evolve_oracle", recording)
        out = tmp_path / "growth.json"
        assert main(["growth", "--scenario", scenario_path, "--out", str(out)]) == 0
        assert tols == [JORDAN_SCENARIO["tolerances"]["ode"]]
        assert set(json.loads(out.read_text())) == {
            "command", "radius", "k_mu", "max_violation", "samples"}

    def test_extract_round_trip(self, scenario_path, tmp_path):
        out = tmp_path / "extract.json"
        code = main(["extract", "--scenario", scenario_path, "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["max_error"] <= 1e-6

    def test_demo_command(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo", "jordan-obstruction", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["passed"] is True

    def test_consecutive_calls_match_fresh_processes(self, scenario_path, capsys, monkeypatch):
        # the parser is built once per process: each call of a run of
        # different subcommands and flags gives the exit code, stdout and
        # stderr bytes of the same command in a new interpreter
        runs = [
            ["spectrum", "--scenario", scenario_path],
            ["demo", "--list"],
            ["linearize", "--scenario", scenario_path, "--order", "6"],
            ["check", "--scenario", scenario_path, "--tol", "nan"],
            ["evolve", "--scenario", scenario_path, "--radius", "0.3"],
            ["growth", "--scenario", scenario_path, "--radius", "0.3", "--tmax", "0.5"],
        ]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage lines to this
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        capsys.readouterr()
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "cocycle_lab.cli", *argv], capture_output=True, env=env
            )
            assert (code, captured.out.encode(), captured.err.encode()) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv
        assert _build_parser() is _build_parser()

    def test_closed_stdout_pipe_ends_quietly(self, tmp_path):
        # 2 times x 256 points: the report outgrows a 64 KiB pipe buffer, so
        # the write meets the closed pipe
        data = dict(JORDAN_SCENARIO, grid={"t_values": [0.5, 1.0], "nodes": 256})
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        argv = [sys.executable, "-m", "cocycle_lab.cli", "evolve", "--scenario", str(path)]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        full = subprocess.run(argv, capture_output=True, env=env, timeout=120)
        assert len(full.stdout) > 1 << 16
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert len(proc.stdout.read(16)) == 16
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert b"Traceback" not in err and err == full.stderr
        assert code == full.returncode == 0

    @pytest.mark.parametrize("report", [
        {"b": [1.5, (2, "x")], "a": {"c": None, "d": -0.0}},
        {"b": [1.5, (float("nan"), "x")], "a": {"c": float("inf"), "d": -float("inf")}},
    ])
    def test_emit_writes_the_bytes_of_the_walked_report(self, tmp_path, report):
        # a finite report is encoded as it is, without the _finite walk
        out = tmp_path / "report.json"
        cli._emit(report, out)
        walked = json.dumps(cli._finite(report), sort_keys=True, allow_nan=False)
        assert out.read_bytes() == (walked + "\n").encode()

    def test_reports_use_the_c_encoder(self, scenario_path, capsys, monkeypatch):
        # json's pure-Python encoder runs only for indented output; a report
        # that reaches it fails here
        def refuse(*args, **kwargs):
            raise AssertionError("pure-Python JSON encoder called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        capsys.readouterr()
        reports = []
        for emit in (
            lambda: cli._emit({"b": [1.5, (2, "x")], "a": {"c": None}}, None),
            lambda: cli._emit({"b": [math.nan], "a": {"c": math.inf, "d": -math.inf}}, None),
            lambda: main(["evolve", "--scenario", scenario_path]),
        ):
            assert not emit()  # None from _emit, exit status 0 from main
            out = capsys.readouterr().out
            assert out.count("\n") == 1 and out.endswith("\n")
            reports.append(strict_json(out))
        assert reports[:2] == [
            {"a": {"c": None}, "b": [1.5, [2, "x"]]},
            {"a": {"c": None, "d": None}, "b": [None]},
        ]
        assert reports[2]["command"] == "evolve"

    def test_demo_list(self, capsys):
        assert main(["demo", "--list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["available"]) >= 7

    def test_unknown_demo_is_input_error(self, capsys):
        # the CLI's own line: no library error, so no class name
        assert main(["demo", "definitely-not-a-demo"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: unknown demo 'definitely-not-a-demo'"]

    def test_missing_scenario_is_input_error(self, capsys):
        assert main(["evolve", "--scenario", "/does/not/exist.json"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ScenarioParseError: cannot read scenario /does/not/exist.json")

    def test_malformed_scenario_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"semigroup": {"f_num": "oops"}}')
        assert main(["evolve", "--scenario", str(path)]) == 2

    def test_spectrum_needs_interior_point(self, tmp_path, capsys):
        data = dict(JORDAN_SCENARIO)
        data["semigroup"] = {"f_num": [[1, 0], [-1, 0]], "f_den": [[1, 0]]}
        path = tmp_path / "boundary.json"
        path.write_text(json.dumps(data))
        assert main(["spectrum", "--scenario", str(path)]) == 2

    def test_generator_above_the_dimension_cap(self, tmp_path, capsys):
        # ad_B0 of a 33 x 33 B0 is 1089 x 1089: linearize and spectrum refuse
        # it before building it; evolve builds no commutator matrix
        data = json.loads(json.dumps(JORDAN_SCENARIO))
        data["generator"] = {"dim": 33, "num_coeffs": [np.diag(0.01 * np.arange(1, 34)).tolist()]}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(data))
        for command in ("linearize", "spectrum"):
            assert main([command, "--scenario", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: DimensionTooLargeError: dimension 33 exceeds the cap 32 on ad_B0"
            ]
        assert main(["evolve", "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 0

    def test_zero_generator_evolves_to_identity(self, tmp_path):
        data = dict(JORDAN_SCENARIO)
        data["generator"] = {
            "dim": 2,
            "num_coeffs": [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]]],
            "den_coeffs": [[1, 0]],
        }
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        for sample in report["samples"]:
            gamma = np.array(
                [[complex(*pair) for pair in row] for row in sample["gamma"]]
            )
            assert np.allclose(gamma, np.eye(2), atol=1e-12)

    def test_disk_grid_shorthand(self, tmp_path):
        data = dict(JORDAN_SCENARIO)
        data["grid"] = {"t_values": [0.5], "disk_radius": 0.3, "nodes": 6}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        out = tmp_path / "r.json"
        assert main(["evolve", "--scenario", str(path), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["samples"]) == 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["linearize", "--scenario", "SCN", "--order", "0"],
            ["demo", "jordan-obstruction", "--order", "0"],
        ],
    )
    def test_order_zero_is_input_error(self, scenario_path, capsys, argv):
        argv = [scenario_path if a == "SCN" else a for a in argv]
        assert main(argv) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["growth", "--tmax", "-1"], "--tmax must be a non-negative finite number, got -1.0"),
            (["growth", "--tmax", "nan"], "--tmax must be a non-negative finite number, got nan"),
            (["growth", "--tmax", "inf"], "--tmax must be a non-negative finite number, got inf"),
            (["growth", "--radius", "nan"], "--radius must be a positive finite number, got nan"),
            (["growth", "--radius", "0"], "--radius must be a positive finite number, got 0.0"),
            (["growth", "--radius", "-0.5"], "--radius must be a positive finite number"),
            (["growth", "--radius=-inf"], "--radius must be a positive finite number, got -inf"),
            (["growth", "--tol", "nan"], "--tol must be a finite number, got nan"),
            (["check", "--tol", "nan"], "--tol must be a finite number, got nan"),
            (["check", "--tol", "inf"], "--tol must be a finite number, got inf"),
            (["extract", "--tol", "nan"], "--tol must be a finite number, got nan"),
            (["extract", "--tol=-inf"], "--tol must be a finite number, got -inf"),
        ],
    )
    def test_bad_flag_value_is_input_error(self, scenario_path, tmp_path, capsys, argv, message):
        out = tmp_path / "r.json"
        assert main(argv[:1] + ["--scenario", scenario_path, "--out", str(out)] + argv[1:]) == 2
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {message}")
        assert not out.exists() and captured.out == ""

    def test_check_tol_zero_is_honoured(self, scenario_path, capsys):
        # the chain residual is tiny but not 0, so a zero tolerance fails
        assert main(["check", "--scenario", scenario_path, "--tol", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["tol"] == 0.0

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("semigroup", "f_num", [[0, 0], [float("nan"), 0]], "non-finite"),
            ("grid", "t_values", [0.5, float("inf")], "non-finite"),
            ("tolerances", "ode", float("nan"), "non-finite"),
            ("grid", "t_values", [0.5, -1.0], "non-negative"),
            (None, "truncation_order", 0, "positive"),
            ("generator", "den_coeffs", [[1, 0], [-2, 0]], "pole inside the unit disk"),
            ("semigroup", "f_den", [[1, 0], [-2, 0]], "pole inside the unit disk"),
            ("grid", "z_values", [], "z grid is empty"),
            ("tolerances", "ode", 0, "ode tolerance must be positive"),
            ("tolerances", "ode", -1e-11, "ode tolerance must be positive"),
            ("tolerances", "sylvester", 0, "sylvester tolerance must be positive"),
            ("tolerances", "resonance", -1, "resonance tolerance must be positive"),
            (None, "grid", [], "grid must be a JSON object"),
            (None, "tolerances", [], "tolerances must be a JSON object"),
            ("grid", "t_values", [], "time grid is empty"),
            ("semigroup", "f_num", [], "no numerator coefficients"),
            ("tolerances", "resonance", 1.0, "resonance tolerance must be below 1"),
            ("tolerances", "resonance", 2.5, "resonance tolerance must be below 1"),
        ],
    )
    def test_bad_number_or_time_is_input_error(
        self, tmp_path, capsys, section, key, value, message
    ):
        data = json.loads(json.dumps(JORDAN_SCENARIO))
        (data[section] if section else data)[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["evolve", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ScenarioParseError: ")
        assert message in err[0]

    @pytest.mark.parametrize(
        "grid", [{"z_values": []}, {"disk_radius": 0.3, "nodes": 0}]
    )
    def test_check_on_empty_grid_is_input_error(self, tmp_path, capsys, grid):
        data = json.loads(json.dumps(JORDAN_SCENARIO))
        data["grid"] = dict(grid, t_values=[0.5, 1.0])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: ScenarioParseError: the z grid is empty"]

    def test_growth_disk_outside_unit_disk_is_input_error(self, scenario_path, capsys):
        assert main(["growth", "--scenario", scenario_path, "--radius", "2"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: OutOfDomainError: disk is not contained in the unit disk"]

    @pytest.mark.parametrize(
        "argv, section, value, message",
        [
            (["growth"], "semigroup", NO_FIXED_POINT, "NoInteriorFixedPointError"),
            (["linearize"], "semigroup", NO_FIXED_POINT, "NoInteriorFixedPointError"),
            (["linearize"], "generator", POLE_AT_HALF, "pole inside the unit disk"),
            (["growth", "--radius", "0.5"], "generator", POLE_AT_HALF, "pole inside the unit disk"),
            (["growth", "--radius", "0.5"], "semigroup", F_POLE_AT_HALF, "pole inside the unit disk"),
        ],
    )
    def test_scenario_outside_assumptions_is_input_error(
        self, tmp_path, capsys, argv, section, value, message
    ):
        data = json.loads(json.dumps(JORDAN_SCENARIO))
        data[section].update(value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main([argv[0], "--scenario", str(path)] + argv[1:]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

    @pytest.mark.parametrize("f_num", [[[0, 0], [1, 0]], [[0, 0], [0, 1]]])  # f = z, f = iz
    def test_fixed_point_that_does_not_attract(self, tmp_path, capsys, f_num):
        # Re lambda <= 0 at z0 = 0: no linearization recursion and no
        # resonance report, but the rotation f = iz still evolves
        data = json.loads(json.dumps(JORDAN_SCENARIO))
        data["semigroup"]["f_num"] = f_num
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(data))
        for command in ("linearize", "spectrum"):
            assert main([command, "--scenario", str(path)]) == 2
            captured = capsys.readouterr()
            err = captured.err.strip().splitlines()
            assert len(err) == 1 and err[0].startswith("error: NotAttractingError:")
            assert captured.out == ""
        if f_num[1] == [0, 1]:
            for command in ("evolve", "growth"):
                assert main([command, "--scenario", str(path), "--out", str(tmp_path / "r.json")]) == 0


# the flags tried on each subcommand: all seven scenario-command flags, with
# --list in place of --scenario for demo
OLD_FLAGS = ("--scenario", "--out", "--csv", "--order", "--tol", "--radius", "--tmax")
DEMO_OLD_FLAGS = ("--list",) + OLD_FLAGS[1:]
READS = {
    "evolve": {"--scenario", "--out", "--csv"},
    "check": {"--scenario", "--out", "--tol"},
    "linearize": {"--scenario", "--out", "--order"},
    "spectrum": {"--scenario", "--out"},
    "growth": {"--scenario", "--out", "--csv", "--radius", "--tmax", "--tol"},
    "extract": {"--scenario", "--out", "--tol"},
    "demo": {"--list", "--out", "--order"},
}
FLAG_VALUES = {"--csv": "x.csv", "--order": "3", "--tol": "0.5", "--radius": "0.4", "--tmax": "2"}


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c in READS for f in (DEMO_OLD_FLAGS if c == "demo" else OLD_FLAGS)],
)
def test_cli_accepts_exactly_the_flags_it_reads(command, flag, scenario_path, tmp_path, capsys):
    out = tmp_path / "r.json"
    head = ["jordan-obstruction"] if command == "demo" else ["--scenario", scenario_path]
    argv = [command] + head + ["--out", str(out)]
    if flag == "--list":
        argv.append(flag)
    elif flag in FLAG_VALUES:
        argv += [flag, str(tmp_path / FLAG_VALUES[flag]) if flag == "--csv" else FLAG_VALUES[flag]]
    if flag in READS[command]:
        assert getattr(_build_parser().parse_args(argv), flag[2:]) not in (None, False)
        return
    assert main(argv) == 2
    assert not out.exists() and capsys.readouterr().out == ""


# finite, huge, tiny, negative, infinite and NaN values for the numeric flags
FLAG_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1e-300, 0.3, 2.0, 1e300, -1.0, -1e300]),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tol=FLAG_FLOATS, radius=FLAG_FLOATS, tmax=FLAG_FLOATS)
def test_growth_flag_values_keep_the_exit_contract(tmp_path_factory, tol, radius, tmax):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(JORDAN_SCENARIO))
    argv = ["growth", "--scenario", str(path), f"--tol={tol!r}", f"--radius={radius!r}", f"--tmax={tmax!r}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


def strict_json(text):
    """``text`` parsed as strict JSON: the tokens NaN and Infinity raise."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


# B = [[1, 0], [z, 2]]: a resonant chain, where C1 and C3 are infinite
CHAIN_GENERATOR = {
    "dim": 2,
    "num_coeffs": [
        [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
        [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
    ],
}
# B = 0.5: no b_k for k >= 1, so r and the radius are infinite
CONSTANT_GENERATOR = {"dim": 1, "num_coeffs": [[[[0.5, 0]]]]}
# B = 0.5 / (1 - 1e-5 z): every value is finite, though radius^64 overflows
WIDE_RADIUS_GENERATOR = {"dim": 1, "num_coeffs": [[[[0.5, 0]]]], "den_coeffs": [[1, 0], [-1e-5, 0]]}


@pytest.mark.parametrize(
    "generator, nulls",
    [
        (CHAIN_GENERATOR, {"C1", "C3"}),
        (CONSTANT_GENERATOR, {"r", "radius_estimate"}),
        (WIDE_RADIUS_GENERATOR, set()),
    ],
)
def test_non_finite_report_values_are_null(tmp_path, capsys, generator, nulls):
    data = json.loads(json.dumps(JORDAN_SCENARIO))
    data["generator"] = generator
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert main(["linearize", "--scenario", str(path), "--order", "64"]) == 0
    report = strict_json(capsys.readouterr().out)
    values = dict(report["diagnostics"], radius_estimate=report["radius_estimate"])
    assert {key for key, value in values.items() if value is None} == nulls


# README scenario mutations: each replaces one field by a malformed or
# non-finite value, or by one that moves a root or a point across the unit
# circle.  Orders stay at most 8, times at most 1 and z grids at most 3 points
SMALL_SCENARIO = dict(
    json.loads(json.dumps(JORDAN_SCENARIO)),
    truncation_order=8,
    grid={"t_values": [0.5, 1.0], "z_values": [[0.3, 0], [0.0, 0.4], [-0.2, 0.1]]},
)
# polynomials by ascending power with a root inside, on or outside the unit
# circle, or none
POLYNOMIALS = [
    [[1, 0], [-2, 0]], [[1, 0], [-1, 0]], [[1, 0], [-0.5, 0]], [[0.5, 0], [-1, 0]],
    [[0, 0], [1, 0]], [[0, 0], [0, 1]], [[0, 0], [-1, 0], [0.6, 0.2]], [[1, 0]],
    [[0, 0], [-1, 0], [2, 0]],
]
SCENARIO_FIELDS = {
    ("semigroup", "f_num"): POLYNOMIALS,
    ("semigroup", "f_den"): POLYNOMIALS,
    ("generator", "dim"): [1, 3, 0],
    ("generator", "den_coeffs"): POLYNOMIALS,
    (None, "generator"): [CHAIN_GENERATOR, CONSTANT_GENERATOR],
    (None, "truncation_order"): [1, 2.5, 0, -3],
    ("grid", "t_values"): [[0.0], [1.0, 0.25], [-0.5]],
    ("grid", "z_values"): [[[0.99, 0]], [[1, 0]], [[2, 0], [0, 0]], [[0, -0.5]]],
    ("tolerances", "ode"): [1e-3, 1.0, 1e-300, 0, -1],
    ("tolerances", "sylvester"): [1e-3, 1.0, 0, -1],
    ("tolerances", "resonance"): [1e-3, 0.5, 0, -1],
    (None, "grid"): [
        {"t_values": [1.0], "z_values": [[0.1, 0]]},
        {"t_values": [0.5], "disk_radius": 0.3, "nodes": 3},
    ],
    (None, "tolerances"): [{}],
}
MALFORMED = [None, "x", [], {}, [[1, 0, 0]], True, math.nan, math.inf, -math.inf, [math.nan, 0]]
MUTATION = st.sampled_from(sorted(SCENARIO_FIELDS, key=str)).flatmap(
    lambda field: st.tuples(
        st.just(field), st.sampled_from(SCENARIO_FIELDS[field]) | st.sampled_from(MALFORMED)
    )
)
SCENARIO_COMMANDS = ("evolve", "check", "linearize", "spectrum", "growth", "extract")


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_two_interior_zeros_of_f_are_an_input_error(tmp_path, capsys, command):
    # f = -z(1 - 2z) vanishes at 0 and at 0.5, which no generator does
    data = json.loads(json.dumps(SMALL_SCENARIO))
    data["semigroup"]["f_num"] = [[0, 0], [-1, 0], [2, 0]]
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(data))
    assert main([command, "--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")
    assert "more than one zero inside the unit disk" in err[0]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mutations=st.lists(MUTATION, max_size=3))
def test_scenario_commands_keep_the_exit_contract(tmp_path_factory, mutations):
    data = json.loads(json.dumps(SMALL_SCENARIO))
    for (section, key), value in mutations:
        target = data if section is None else data[section]
        if isinstance(target, dict):  # an earlier mutation may have replaced the section
            target[key] = value
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(json.dumps(data))  # non-finite values as NaN/Infinity tokens
    for command in SCENARIO_COMMANDS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--scenario", str(path)])
        assert code in ((0, 1, 2) if command in ("check", "growth", "extract") else (0, 2))
        if code != 2:
            strict_json(out.getvalue())


# each report and CSV file a command writes, aimed into a directory that does
# not exist, alone or beside a writable ok.* file of the other kind
UNWRITABLE = [
    *([command, "--out"] for command in SCENARIO_COMMANDS),
    ["demo", "jordan-obstruction", "--out"],
    ["demo", "--list", "--out"],
    ["evolve", "--csv"],
    ["growth", "--csv"],
    *([command, "--csv", "ok.csv", "--out"] for command in ("evolve", "growth")),
    *([command, "--out", "ok.json", "--csv"] for command in ("evolve", "growth")),
]


@pytest.mark.parametrize("argv", UNWRITABLE, ids=" ".join)
def test_unwritable_output_path_is_input_error(scenario_path, tmp_path, capsys, argv):
    target = tmp_path / "missing" / ("r.csv" if argv[-1] == "--csv" else "r.json")
    head = [] if argv[0] == "demo" else ["--scenario", scenario_path]
    rest = [str(tmp_path / a) if a.startswith("ok.") else a for a in argv[1:]]
    assert main(argv[:1] + head + rest + [str(target)]) == 2
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert captured.out == "" and len(err) == 1
    assert err[0].startswith("error: FileNotFoundError:") and str(target) in err[0]
    # a run that exits 2 leaves no output file, whichever write failed
    assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]
