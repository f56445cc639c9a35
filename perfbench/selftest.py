"""Self-test of the benchmark, at tiny sizes (under a minute):

    python3 perfbench/selftest.py

1. Each workload, plain and traced, prints every metric name with its unit,
   and its last line holds exactly the metrics of its mode.  Each per-layer
   metric is non-zero on the workload that exercises its layer.
2. The traced phase sees the entry points that tasks bind while the
   workload is built: one ``extract_generator_auto`` span per extract-narrow
   task, and every evolve-wide grid point inside an ``evolve_grid`` span.
3. The counting wrappers leave results bit-identical: task 0 of each
   workload gives the same bytes wrapped and unwrapped.
4. A task whose reference is made unreachable, and a task that raises, are
   each counted as failed, neither swallowed nor raised past the harness.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run  # sets the thread pins before numpy is imported

HERE = Path(__file__).resolve().parent

#: per-layer metrics that must be non-zero, by the workload that exercises
#: their layer at tiny size; every per-layer metric is listed once, except
#: those in MAY_BE_ZERO
NONZERO_ON = {
    "extract-narrow": (
        "integrate.integrate.calls", "integrate.integrate.self_ms",
        "integrate.integrate_at.out_times", "integrate.b_calls", "integrate.b_points",
        "integrate.f_points", "cocycle.extract_generator.grid_rounds",
        "cocycle.extract_generator.self_ms",
    ),
    "evolve-wide": (
        "cocycle.evolve_grid.calls", "cocycle.evolve_grid.points", "cocycle.evolve_grid.self_ms",
        "cocycle.gamma_grid.calls", "cocycle.gamma_grid.self_ms", "cocycle.check_axioms.self_ms",
        "cocycle.growth_report.self_ms", "dynamics.flow.calls", "dynamics.flow.self_ms",
        "dynamics.build_model.setup_ms", "algebra.log_norm.calls", "algebra.log_norm.self_ms",
        "algebra.operator_norm.calls", "algebra.operator_norm.self_ms",
    ),
    "linearize-series": (
        "dynamics.build_model.self_ms", "series.mul.calls", "series.mul.self_ms",
        "series.compose.self_ms", "series.revert.self_ms", "algebra.sylvester_resolve.calls",
        "algebra.sylvester_resolve.self_ms", "numpy.svd.calls", "linearize.linearize.self_ms",
        "linearize.condition_check.self_ms", "linearize.conjugated_generator.self_ms",
    ),
    "cli-demos": (
        "cocycle.boundedness_classify.self_ms", "dynamics.flow_ode.calls",
        "dynamics.flow.ode_share", "series.evaluate.calls", "series.evaluate.self_ms",
        "algebra.mat_exp.calls", "algebra.mat_inv.calls", "linearize.reconstruct_error.self_ms",
        "linearize.commutative.self_ms", "demos.demo_by_name.self_ms", "cli.main.self_ms",
        "cli.run_demo.self_ms", "cli.report_bytes",
    ),
}

#: retries happen only when a first t0 fails; the overhead may round to 0
MAY_BE_ZERO = ("cocycle.extract_generator_auto.t0_retries", "trace.overhead_frac")


def check_printed_metrics() -> None:
    listed = [m for names in NONZERO_ON.values() for m in names] + list(MAY_BE_ZERO)
    assert sorted(listed) == sorted(run.PER_LAYER_UNITS), "NONZERO_ON is out of date"
    for trace, units in ((0, dict(run.END_TO_END_UNITS, **run.REPORTED_ONLY_UNITS)),
                         (1, run.PER_LAYER_UNITS)):
        for name in run.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "7",
                 "--seconds", "0.5", "--trace", str(trace), "--tiny"],
                stdout=subprocess.PIPE, text=True, timeout=300, check=True)
            lines = proc.stdout.strip().splitlines()
            for metric, unit in units.items():
                assert any(line.split()[:1] == [metric] and line.split()[2:3] == [unit]
                           for line in lines[:-1]), f"{name}: {metric} [{unit}] not printed"
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            expected = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
            assert {k: v["unit"] for k, v in result["metrics"].items()} == expected, name
            assert result["correct"] and result["failed"] == 0, (name, result)
            if trace:
                for metric in NONZERO_ON[name]:
                    assert result["metrics"][metric]["value"] != 0, f"{name}: {metric} is 0"
            print(f"ok: {name} trace {trace} prints {len(units)} metrics with units")


def check_traced_entry_points(workdir: Path) -> None:
    import spans
    from counting import Counters

    for name in ("extract-narrow", "evolve-wide"):
        counters = Counters()
        recorder = spans.Recorder(counters)
        workload = run.build_workload(name, 7, True, counters, recorder, workdir)
        records = run.traced_phase(workload, counters, recorder, 0.0)
        summary = recorder.summary()
        calls, amounts = summary["calls"], summary["amounts"]
        if name == "extract-narrow":
            got = calls["cocycle.extract_generator_auto"]
            assert got == len(records), f"{got} extract_generator_auto spans, {len(records)} tasks"
            print(f"ok: {name} traces one extract_generator_auto per task")
        else:
            sizes = [int(r.kind.rsplit("/", 1)[1]) for r in records
                     if r.kind.startswith("evolve_grid/")]
            assert calls["cocycle.evolve_grid"] >= len(sizes), calls["cocycle.evolve_grid"]
            assert amounts["cocycle.evolve_grid"] >= sum(sizes), amounts["cocycle.evolve_grid"]
            print(f"ok: {name} traces all {len(sizes)} grid tasks "
                  f"({amounts['cocycle.evolve_grid']} evolve_grid points)")


def check_bit_identity(workdir: Path) -> None:
    import spans
    import workloads
    from counting import Counters

    for name in run.WORKLOADS:
        counters = Counters()
        wrapped = workloads.build(name, 11, True, counters, workdir)
        plain = workloads.build(name, 11, True, None, workdir)
        patches = spans.Patches()
        for owner, attr, value in wrapped.patches:
            patches.set(owner, attr, value)
        counters.active = True
        try:
            out_wrapped = wrapped.tasks[0].run()
        finally:
            counters.active = False
            patches.undo()
        out_plain = plain.tasks[0].run()
        assert counters.b_points > 0, f"{name}: nothing counted"
        task = wrapped.tasks[0]
        assert task.digest(out_wrapped) == task.digest(out_plain), f"{name}: results differ"
        assert task.check(out_wrapped).ok
        print(f"ok: {name} task 0 bit-identical with counting wrappers "
              f"({counters.b_points} B points counted)")


def check_failure_accounting(workdir: Path) -> None:
    import workloads
    from counting import Counters

    counters = Counters()
    workload = workloads.build("extract-narrow", 5, True, counters, workdir)
    reachable = workload.tasks[0].check

    def unreachable(out):
        saved = workloads.EXTRACT_TOL
        workloads.EXTRACT_TOL = 0.0
        try:
            return reachable(out)
        finally:
            workloads.EXTRACT_TOL = saved

    def raises():
        raise ValueError("deliberate failure")

    workload.tasks[0].check = unreachable
    workload.tasks[1].run = raises
    records = run.run_phase(workload, counters, 0.0, whole_passes=True)
    n = len(workload.tasks)
    metrics, _notes = run.end_to_end(records, [(1.0, 1.0)], counters.FIELDS.index("b_points"))
    assert len(records) == n, len(records)
    assert [r.index for r in records if not r.check.ok] == [0, 1], [r.check.detail for r in records]
    assert metrics["failed_frac"] == 2 / n, metrics["failed_frac"]
    assert metrics["tasks_per_s"] > 0
    print(f"ok: unreachable reference and raising task counted: failed_frac = 2/{n}")


def main() -> int:
    run._import_library()
    check_printed_metrics()
    run.OUT.mkdir(exist_ok=True)
    workdir = run.OUT / "selftest-work"
    workdir.mkdir(exist_ok=True)
    try:
        check_traced_entry_points(workdir)
        check_bit_identity(workdir)
        check_failure_accounting(workdir)
    finally:
        for p in workdir.iterdir():
            p.unlink()
        workdir.rmdir()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
