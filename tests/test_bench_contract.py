"""The names the benchmark in perfbench/ wraps from outside the library.

Its traced run replaces public functions at every module binding and the
series methods on their classes; its counting run swaps the CLI's generator
and map classes.  A refactor that drops or moves one of those names breaks
the benchmark, so these checks fail first.
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import counting  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from cocycle_lab import cli, demos, series  # noqa: E402
from cocycle_lab.cocycle import CocycleGenerator, growth_report  # noqa: E402
from cocycle_lab.dynamics import RationalMap, SemigroupModel, build_model  # noqa: E402
from cocycle_lab.linearize import linearize, sharpness_witness  # noqa: E402


def test_every_traced_name_is_bound_and_restored():
    before = {cls: dict(vars(cls)) for _, cls, _ in spans.METHOD_SPANS}
    patches = spans.install(spans.Recorder(counting.Counters()))
    patches.undo()
    for cls, attrs in before.items():
        assert dict(vars(cls)) == attrs


def test_series_methods_live_on_their_classes():
    assert "__mul__" in vars(series._Series)
    for cls in (series.ScalarSeries, series.MatrixSeries):
        assert {"evaluate", "__call__"} <= set(vars(cls))


def test_every_traced_flow_is_one_ode_integration():
    # the harness wraps ``flow`` on the class and reads
    # dynamics.flow.ode_share from the flow -> flow_ode edges, so the method
    # must stay on the class and look up flow_ode at call time
    assert "flow" in vars(SemigroupModel)
    recorder = spans.Recorder(counting.Counters())
    model = build_model(RationalMap([0.0, -1.0, 0.9]), order=24)
    B = CocycleGenerator(np.array([np.diag([0.2, 0.5]), [[0.0, 1.0], [0.3, 0.0]]], dtype=complex))
    with spans.recording(recorder, "contract"):
        growth_report(model, B, 0.3, t_values=(0.1, 0.5))
    summary = recorder.summary()
    flows = summary["calls"]["dynamics.flow"]
    assert flows >= 1
    assert summary["edges"][("dynamics.flow", "dynamics.flow_ode")] == flows


def test_traced_calls_per_layer():
    counters = counting.Counters()
    recorder = spans.Recorder(counters)
    model = build_model(RationalMap([0.0, -1.0, 0.5]), order=8)
    # lam = 1 meets the eigenvalue gap of B0 at order 1 alone, and the (0, 1)
    # entry of B1 is 0, so the chain is resonant but solvable
    num = np.array([np.diag([0.3, 1.3]), [[0.0, 0.0], [0.2, 0.1]]], dtype=complex)
    B = counting.wrap_generator(CocycleGenerator(num), counters)
    with spans.recording(recorder, "contract"):
        counters.active = True
        out = linearize(model, B, order=6)
        counters.active = False
        growth_report(model, B, 0.3, t_values=(0.25,))
    calls = recorder.summary()["calls"]
    # one resolvent solve per resonant order (the others are column sweeps),
    # and B expanded once (one Taylor point)
    assert out.status == "resonant_solvable" and out.violated_k == [1]
    assert calls["algebra.sylvester_resolve"] == 1
    assert (counters.b_calls, counters.b_points) == (0, 1)
    assert calls["algebra.log_norm"] >= 1


def test_traced_witness_linearize_reaches_the_selftest_layers():
    # the self-test needs series.mul and sylvester_resolve non-zero on
    # linearize-series, whose B are polynomials: B's Taylor series still
    # takes one product with the reciprocal of its constant denominator,
    # and the witness's resonant order one resolvent solve
    recorder = spans.Recorder(counting.Counters())
    model = build_model(RationalMap([0.0, -1.0, 0.6j]), order=12)
    b0 = np.array([[0.2, 0.5], [0.0, 2.2]], dtype=complex)
    with spans.recording(recorder, "contract"):
        out = linearize(model, sharpness_witness(b0, 1.0, 2), order=12)
    calls = recorder.summary()["calls"]
    assert (out.status, out.obstructed_at) == ("obstructed", 2)
    assert calls["series.mul"] >= 1
    assert calls["algebra.sylvester_resolve"] == 1


@pytest.mark.parametrize("name, layers", [
    ("affine-scalar", ("linearize.commutative", "cocycle.boundedness_classify")),
    ("sqrt-nonexp", ("cocycle.boundedness_classify",)),
], ids=["affine-scalar", "sqrt-nonexp"])
def test_traced_demo_reaches_the_selftest_layers(name, layers):
    # the self-test needs these layers non-zero on cli-demos: the affine-scalar
    # transfer-map check is the one route to linearize.commutative, and the
    # two demos' sup checks the only callers of boundedness_classify
    recorder = spans.Recorder(counting.Counters())
    with spans.recording(recorder, "contract"):
        _report, passed = cli.run_demo(name)
    assert passed
    calls = recorder.summary()["calls"]
    assert all(calls.get(layer, 0) >= 1 for layer in layers), calls


def test_demo_oracles_broadcast_bit_equal_to_scalar_calls():
    # the evolve-wide check stacks scalar oracle calls; the CLI demos call the
    # oracle once on the whole grid
    ts = np.array([0.0, 0.3, 0.9, 1.5])
    zs = np.array([0.0, 0.3, -0.2 + 0.25j, 0.5j, 0.55 - 0.1j, -0.6])
    for entry in demos.demo_catalog():
        n = entry.dim
        assert entry.oracle(0.5, 0.3 + 0.1j).shape == (n, n), entry.name
        stacked = np.array([[entry.oracle(t, complex(z)) for z in zs] for t in ts.tolist()])
        grid = entry.oracle(ts, zs)
        assert grid.shape == (len(ts), len(zs), n, n), entry.name
        assert np.array_equal(grid, stacked), entry.name


def test_demo_boundary_flag_survives_wrapping():
    # evolve-wide skips the boundary demos by ``entry.boundary``, read after
    # the harness replaces f and B with counting wrappers
    counters = counting.Counters()
    for entry in demos.demo_catalog():
        wrapped = dataclasses.replace(entry, f=counting.wrap_map(entry.f, counters),
                                      generator=counting.wrap_generator(entry.generator, counters))
        assert entry.boundary == wrapped.boundary == (entry.name == "affine-scalar"), entry.name


def test_cli_looks_up_its_constructors_per_call(tmp_path, monkeypatch, capsys):
    counters = counting.Counters()
    monkeypatch.setattr(cli, "CocycleGenerator", counters.generator_cls)
    monkeypatch.setattr(cli, "RationalMap", counters.map_cls)
    scenario = {
        "semigroup": {"f_num": [0, -1]},
        "generator": {"dim": 1, "num_coeffs": [[[0.5]]]},
    }
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scenario))
    counters.active = True
    assert cli.main(["evolve", "--scenario", str(path)]) == 0
    assert counters.b_calls >= 1 and counters.f_points >= 1

    def missing(name):
        raise KeyError(name)

    monkeypatch.setattr(cli, "demo_by_name", missing)
    assert cli.main(["demo", "jordan-obstruction"]) == 2
    capsys.readouterr()



@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_tiny_workload_passes_its_reference_checks(name, tmp_path):
    # the cli-demos check reads run_demo's report details; a format slip in
    # any workload's output fails here before a benchmark run
    workload = workloads.build(name, 1, True, None, tmp_path)
    assert workload.tasks and not workload.patches
    for task in workload.tasks:
        result = task.check(task.run())
        assert result.ok, (task.kind, result.detail)
