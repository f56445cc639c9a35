"""Demo catalog integrity and command-line front end behavior."""

import json

import numpy as np
import pytest

from cocycle_lab.cli import _build_parser, main, run_demo
from cocycle_lab.demos import demo_by_name, demo_catalog

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


@pytest.mark.parametrize("name", [e.name for e in demo_catalog()])
def test_demo_runs_clean(name):
    report, passed = run_demo(name)
    failed = [c for c in report["checks"] if not c["passed"]]
    assert passed, f"failed checks: {failed}"
    assert report["checks"], "demo must verify something"


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

    def test_check_passes(self, scenario_path):
        assert main(["check", "--scenario", scenario_path]) == 0

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
        assert report["rank_route_agrees"] is True

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

    def test_demo_list(self, capsys):
        assert main(["demo", "--list"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert len(listing["available"]) >= 7

    def test_unknown_demo_is_input_error(self, capsys):
        assert main(["demo", "definitely-not-a-demo"]) == 2

    def test_missing_scenario_is_input_error(self, capsys):
        assert main(["evolve", "--scenario", "/does/not/exist.json"]) == 2

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
        assert len(err) == 1 and err[0].startswith("error:") and message in err[0]

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
