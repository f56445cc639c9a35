"""Scenario-driven command line front end.

Subcommands dispatch to the library: ``evolve`` integrates the evolution
problem on a grid, ``check`` verifies the semicocycle axioms, ``linearize``
runs the series pipeline, ``spectrum`` reports the resonance condition,
``growth`` produces a logarithmic-norm growth report (JSON + CSV),
``extract`` recovers the generator from sampled evolution data, and
``demo`` reproduces a packaged worked example against its expectations.

Each subcommand accepts only the flags it reads; argparse refuses any
other flag with exit status 2.  Scenario files are JSON; complex numbers are
``[re, im]`` pairs and matrices are row-major nested arrays.  Exit status: 0
on success, 1 when a verification check fails or the integrator does not
converge, 2 on input errors, among them an output path that cannot be
written and a trajectory that leaves the disk; a CSV written before a report
that cannot be written is removed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .algebra import as_pairs, operator_norm
from .cocycle import (
    CocycleGenerator,
    boundedness_classify,
    check_axioms,
    evolve_grid,
    extract_generator_auto,
    growth_report,
    make_evolve_oracle,
)
from .demos import demo_by_name, demo_catalog
from .dynamics import RationalMap, build_model
from .errors import CocycleLabError, NoConvergenceError, NoInteriorFixedPointError, ScenarioParseError
from .linearize import (
    commutative_linearize_nofix,
    condition_check,
    linearize as run_linearize,
    reconstruct_error,
)

#: ODE tolerance of scenario files that set none, and of every demo run
ODE_TOL = 1e-11


def _as_real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioParseError(f"expected a JSON number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ScenarioParseError(f"non-finite number {value!r}")
    return x


def _as_complex(value) -> complex:
    if isinstance(value, (int, float)):
        return complex(_as_real(value))
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_as_real(value[0]), _as_real(value[1]))
    raise ScenarioParseError(f"expected a number or [re, im] pair, got {value!r}")


def _as_int(section: dict, key: str, default=None) -> int:
    """``section[key]`` (or ``default`` when given and the key is absent),
    which must be a JSON integer: a bool, a string or a float is refused."""
    value = section[key] if default is None else section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioParseError(f"{key} must be a JSON integer, got {value!r}")
    return value


def _as_tolerance(tols: dict, key: str, default: float) -> float:
    x = _as_real(tols.get(key, default))
    if x <= 0.0:
        raise ScenarioParseError(f"{key} tolerance must be positive, got {x!r}")
    return x


def _section(data: dict, key: str, default=None) -> dict:
    """``data[key]``, or ``default`` when given and the key is absent; a
    section that is present must be a JSON object."""
    sec = data[key] if default is None else data.get(key, default)
    if not isinstance(sec, dict):
        raise ScenarioParseError(f"{key} must be a JSON object, got {type(sec).__name__}")
    return sec


def _complex_list(values) -> np.ndarray:
    return np.asarray([_as_complex(v) for v in values], dtype=complex)


def _as_matrix(rows, n: int) -> np.ndarray:
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ScenarioParseError(f"matrix rows do not form an {n}x{n} array")
    return np.asarray([[_as_complex(x) for x in row] for row in rows], dtype=complex)


class Scenario:
    """Parsed problem description: semigroup, generator, grid, tolerances."""

    def __init__(self, data: dict):
        try:
            sg = _section(data, "semigroup")
            self.f = RationalMap(
                _complex_list(sg["f_num"]), _complex_list(sg.get("f_den", [1.0]))
            )

            gen = _section(data, "generator")
            self.dim = _as_int(gen, "dim")
            num = np.stack(
                [_as_matrix(rows, self.dim) for rows in gen["num_coeffs"]]
            )
            den = _complex_list(gen.get("den_coeffs", [1.0]))
            self.generator = CocycleGenerator(num, den)

            self.order = _as_int(data, "truncation_order", 24)
            if self.order < 1:
                raise ScenarioParseError("truncation_order must be a positive integer")
            grid = _section(data, "grid", {})
            self.t_values = [_as_real(t) for t in grid.get("t_values", [0.5, 1.0, 2.0])]
            if any(t < 0 for t in self.t_values):
                raise ScenarioParseError("t_values must be non-negative")
            if not self.t_values:
                raise ScenarioParseError("the time grid is empty")
            if "z_values" in grid:
                self.z_values = _complex_list(grid["z_values"])
            else:
                radius = _as_real(grid.get("disk_radius", 0.4))
                nodes = _as_int(grid, "nodes", 8)
                angles = 2.0 * np.pi * np.arange(nodes) / nodes
                self.z_values = radius * np.exp(1j * angles)
            if self.z_values.size == 0:
                raise ScenarioParseError("the z grid is empty")
            tols = _section(data, "tolerances", {})
            self.ode_tol = _as_tolerance(tols, "ode", ODE_TOL)
            self.sylvester_tol = _as_tolerance(tols, "sylvester", 1e-10)
            self.resonance_tol = _as_tolerance(tols, "resonance", 1e-8)
            if self.resonance_tol >= 1.0:
                raise ScenarioParseError(
                    f"resonance tolerance must be below 1, got {self.resonance_tol!r}")
        except ScenarioParseError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ScenarioParseError(f"bad scenario field: {exc}") from exc


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ScenarioParseError(f"cannot read scenario {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ScenarioParseError("scenario root must be a JSON object")
    return Scenario(data)


def _finite(obj):
    """``obj`` with each non-finite float replaced by None."""
    if isinstance(obj, dict):
        return {key: _finite(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(value) for value in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _emit(report: dict, out_path) -> None:
    """Write ``report`` as one line of strict JSON with sorted keys: a
    non-finite float becomes null.  Only a report that holds one is walked
    by ``_finite``.  Compact output lets ``json.dumps`` use its C encoder.

    A reader that closes stdout early (``| head``) ends the write quietly:
    stdout is pointed at the null device, so the interpreter's exit flush
    raises nothing, and the command keeps its own exit status."""
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_finite(report), sort_keys=True, allow_nan=False)
    if out_path:
        Path(out_path).write_text(text + "\n", encoding="utf-8")
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_evolve(scn: Scenario, args) -> tuple[dict, int]:
    model = build_model(scn.f, scn.order)
    vals = evolve_grid(model, scn.generator, scn.t_values, scn.z_values, tol=scn.ode_tol)
    zs = as_pairs(scn.z_values)
    samples = [
        {"t": t, "z": z, "gamma": g, "gamma_norm": g_norm}
        for t, g_row, norm_row in zip(scn.t_values, as_pairs(vals), operator_norm(vals).tolist())
        for z, g, g_norm in zip(zs, g_row, norm_row)
    ]
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "z_re", "z_im", "gamma_norm"])
            for s in samples:
                writer.writerow([s["t"], s["z"][0], s["z"][1], s["gamma_norm"]])
    return {"command": "evolve", "samples": samples}, 0


def _cmd_check(scn: Scenario, args) -> tuple[dict, int]:
    model = build_model(scn.f, scn.order)
    gamma = make_evolve_oracle(model, scn.generator, tol=scn.ode_tol)
    report = check_axioms(model, gamma, scn.t_values, scn.z_values, tol=args.tol)
    return {"command": "check", **report.as_dict()}, 0 if report.passed else 1


def _cmd_linearize(scn: Scenario, args) -> tuple[dict, int]:
    order = scn.order if args.order is None else args.order
    model = build_model(scn.f, order)
    outcome = run_linearize(
        model,
        scn.generator,
        order=order,
        sylvester_tol=scn.sylvester_tol,
        resonance_rtol=scn.resonance_tol,
    )
    return {"command": "linearize", **outcome.as_dict()}, 0


def _cmd_spectrum(scn: Scenario, args) -> tuple[dict, int]:
    model = build_model(scn.f, scn.order)
    if not model.is_interior:
        raise NoInteriorFixedPointError("spectrum needs an interior fixed point")
    b0 = scn.generator(model.z0)
    report = condition_check(
        b0, model.rate, resonance_rtol=scn.resonance_tol
    )
    return {"command": "spectrum", **report.as_dict()}, 0


def _cmd_growth(scn: Scenario, args) -> tuple[dict, int]:
    model = build_model(scn.f, scn.order)
    ts = [t for t in (0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0) if t <= args.tmax] or [args.tmax]
    gamma = make_evolve_oracle(model, scn.generator, tol=scn.ode_tol)
    report = growth_report(model, scn.generator, args.radius, t_values=ts, gamma=gamma)
    if args.csv:
        report.write_csv(args.csv)
    status = 0 if report.max_violation <= args.tol else 1
    return {"command": "growth", **report.as_dict()}, status


def _cmd_extract(scn: Scenario, args) -> tuple[dict, int]:
    model = build_model(scn.f, scn.order)
    gamma = make_evolve_oracle(model, scn.generator, tol=scn.ode_tol)
    zs = scn.z_values
    recovered = extract_generator_auto(gamma, scn.f, zs)
    errors = operator_norm(recovered - scn.generator(zs)).tolist()
    rows = [{"z": as_pairs(z), "generator": as_pairs(b), "error_vs_scenario": err}
            for z, b, err in zip(zs, recovered, errors)]
    status = 0 if max(errors) <= args.tol else 1
    return {"command": "extract", "points": rows, "max_error": max(errors)}, status


def run_demo(name: str, *, order: int = 24) -> tuple[dict, bool]:
    """Run one packaged demo end-to-end against its expectations.

    Returns the report dict and an overall pass flag.  Shared checks: the
    evolution solver must match the closed-form oracle, and the chain rule
    must hold on a sample grid.  Entry-specific expectations (growth rate,
    sup-norm bounds and log-sups from the closed forms, linearization
    status, obstruction order, transfer maps) follow.
    """
    entry = demo_by_name(name)
    model = entry.model(order=order)
    checks = []

    def record(label, passed, detail):
        checks.append({"check": label, "passed": bool(passed), "detail": detail})

    ts = list(entry.sample_t)
    zs = np.asarray(entry.sample_z, dtype=complex)
    if entry.oracle is not None:
        diff = evolve_grid(model, entry.generator, ts, zs, tol=ODE_TOL) - entry.oracle(ts, zs)
        err = float(np.max(operator_norm(diff)))
        record("evolve_matches_oracle", err <= 2e-8, f"max deviation {err:.3e}")

        axioms = check_axioms(model, entry.oracle, [0.4, 0.9], zs, tol=1e-7)
        record("axioms", axioms.passed, axioms.as_dict())

    exp = entry.expected
    if "k_mu" in exp:
        rep = growth_report(
            model,
            entry.generator,
            exp["k_mu"]["radius"],
            gamma=entry.oracle,
        )
        ok = (
            abs(rep.k_mu - exp["k_mu"]["value"]) <= 1e-6
            and rep.max_violation <= 1e-9
        )
        record(
            "growth_rate",
            ok,
            {"k_mu": rep.k_mu, "max_violation": rep.max_violation},
        )
    if "k_mu_divergent_radius" in exp:
        r = exp["k_mu_divergent_radius"]
        rep = growth_report(
            model,
            entry.generator,
            r,
            t_values=(0.5, 1.0),
            gamma=entry.oracle,
        )
        record(
            "k_mu_divergence",
            rep.k_mu > exp["k_mu_exceeds"],
            {"radius": r, "k_mu": rep.k_mu},
        )
    if "disk_sup_bound" in exp:
        for disk in (0.5, 0.9):
            ring = disk * np.exp(2j * np.pi * np.arange(64) / 64)
            sups = boundedness_classify(entry.oracle, [0.5, 1.0, 2.0, 3.0], ring)
            ratio = max(s / exp["disk_sup_bound"](t) for t, s in sups)
            record(f"sup_bound_on_disk_{disk}", ratio <= 1.0, {"max_ratio": ratio, "sups": sups})
    if "trajectory_log_sup" in exp:
        traj = model.flow([0.0, 1.0, 2.0, 3.0], 0.0)
        sups = boundedness_classify(entry.oracle, [0.5, 1.0, 2.0, 3.0], traj)
        err = max(abs(math.log(s) / exp["trajectory_log_sup"](t) - 1.0) for t, s in sups)
        record("log_sup_on_trajectory", err <= 1e-9, {"max_rel_error": err, "sups": sups})
    if "transfer_map" in exp:
        worst = 0.0
        for z in (0.0, 0.3, 0.2 + 0.1j):
            mz = commutative_linearize_nofix(entry.f, entry.generator, z)
            worst = max(worst, abs(mz - exp["transfer_map"](z)))
        record("coboundary_transfer_map", worst <= 1e-8, f"max deviation {worst:.3e}")
    if "status" in exp:
        outcome = run_linearize(model, entry.generator, order=order)
        record(
            "linearization_status",
            outcome.status == exp["status"]
            and outcome.obstructed_at == exp.get("obstructed_at"),
            {"status": outcome.status, "obstructed_at": outcome.obstructed_at},
        )
        if "violated_k" in exp:
            record(
                "violated_orders",
                outcome.violated_k == exp["violated_k"],
                {"violated_k": outcome.violated_k},
            )
        if "m1" in exp:
            err = operator_norm(outcome.m.coeffs[1] - np.asarray(exp["m1"]))
            record("first_transfer_coefficient", err <= 1e-9, f"deviation {err:.3e}")
        if "b0" in exp:
            err = operator_norm(outcome.b0 - np.atleast_2d(exp["b0"]))
            record("b0_value", err <= 1e-12, f"deviation {err:.3e}")
        if "m_coeffs" in exp:
            ref = np.zeros(order + 1, dtype=complex)
            ref[: len(exp["m_coeffs"])] = exp["m_coeffs"]
            err = float(np.max(np.abs(outcome.m.coeffs[:, 0, 0] - ref)))
            record("transfer_map_series", err <= 1e-9, f"deviation {err:.3e}")
        if outcome.status in ("linearizable", "coboundary") and entry.oracle is not None:
            samples = [(t, z) for t in (0.5, 1.5) for z in (0.2, 0.1 + 0.1j)]
            err = reconstruct_error(
                model,
                entry.generator,
                outcome,
                samples,
                guard_radius=min(outcome.radius_estimate, 0.6),
            )
            record("reconstruction", err <= 1e-6, f"max deviation {err:.3e}")

    passed = all(c["passed"] for c in checks)
    report = {
        "command": "demo",
        "demo": entry.name,
        "description": entry.description,
        "passed": passed,
        "checks": checks,
    }
    return report, passed


#: type, help, domain test and what the value must be of each optional flag
_FLAGS = {
    "--csv": (str, "write CSV samples here", None, None),
    "--order": (int, "truncation order", lambda x: x >= 1, "a positive integer"),
    "--tol": (float, "verification tolerance", math.isfinite, "a finite number"),
    "--radius": (float, "disk radius", lambda x: 0.0 < x < math.inf,
                 "a positive finite number"),
    "--tmax": (float, "largest sample time", lambda x: 0.0 <= x < math.inf,
               "a non-negative finite number"),
}

#: subcommand -> handler, help, and the optional flags it reads with their
#: defaults (a default of None for --order means the scenario's order)
_COMMANDS = {
    "evolve": (_cmd_evolve, "integrate the evolution problem on the scenario grid",
               {"--csv": None}),
    "check": (_cmd_check, "verify the semicocycle axioms on the scenario grid",
              {"--tol": 1e-7}),
    "linearize": (_cmd_linearize, "run the series linearization pipeline", {"--order": None}),
    "spectrum": (_cmd_spectrum, "report the resonance condition for B(z0)", {}),
    "growth": (_cmd_growth, "logarithmic-norm growth report on a disk",
               {"--csv": None, "--radius": 0.5, "--tmax": 3.0, "--tol": 1e-9}),
    "extract": (_cmd_extract, "recover the generator from evolution samples",
                {"--tol": 1e-6}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One sub-parser per subcommand, declaring only the flags it reads;
    built once per process, as parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="Construct, verify, and linearize matrix-valued "
        "holomorphic semicocycles over unit-disk semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flags(p, flags):
        p.add_argument("--out", default=None, help="write the JSON report here")
        for flag, default in flags.items():
            kind, text, _valid, _what = _FLAGS[flag]
            suffix = "" if default is None else " (default %(default)s)"
            p.add_argument(flag, type=kind, default=default, help=text + suffix)

    for name, (_handler, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario JSON path")
        add_flags(p, flags)

    demo = sub.add_parser("demo", help="reproduce a packaged worked example")
    demo.add_argument("name", nargs="?", default=None, help="demo name")
    demo.add_argument("--list", action="store_true", help="list demo names")
    add_flags(demo, {"--order": 24})
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's own exit: 2 on bad flags, 0 for --help
        return exc.code
    for flag, (_kind, _text, valid, what) in _FLAGS.items():
        value = getattr(args, flag[2:], None)
        if valid and value is not None and not valid(value):
            print(f"error: {flag} must be {what}, got {value!r}", file=sys.stderr)
            return 2
    try:
        if args.command == "demo":
            if args.list or args.name is None:
                report = {
                    "command": "demo",
                    "available": [
                        {"name": e.name, "description": e.description}
                        for e in demo_catalog()
                    ],
                }
                _emit(report, args.out)
                return 0
            try:
                report, passed = run_demo(args.name, order=args.order)
            except KeyError as exc:
                print(f"error: {exc.args[0]}", file=sys.stderr)
                return 2
            _emit(report, args.out)
            return 0 if passed else 1
        scn = _load_scenario(args.scenario)
        report, status = _COMMANDS[args.command][0](scn, args)
        try:
            _emit(report, args.out)
        except OSError:  # no report: the CSV written before it goes too
            if getattr(args, "csv", None):
                Path(args.csv).unlink(missing_ok=True)
            raise
        return status
    except (CocycleLabError, OSError) as exc:  # an OSError: an --out or --csv path not written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, NoConvergenceError) else 2


if __name__ == "__main__":
    sys.exit(main())
