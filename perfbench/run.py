"""cocycle-lab benchmark: seeded workloads against the public API, checked
against references, with end-to-end metrics or (``--trace 1``) per-layer
metrics.

    python3 perfbench/run.py --workload extract-narrow --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

Load model: a closed loop with one caller in one process; each task starts
after the previous one finished.  BLAS threads and COCYCLE_LAB_THREADS are
pinned to 1.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
in this directory for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, and inherited by every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "COCYCLE_LAB_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("extract-narrow", "evolve-wide", "linearize-series", "cli-demos")

#: child processes timed from spawn to the first timed task; setup_s is their median
SETUP_PROBES = 5
#: bound on |log10(tol / err)|; the value reported when every err is 0
HEADROOM_CEILING = 16.0
#: samples that must lie beyond the tail percentile
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms_p50": "ms",
    "task_ms_tail": "ms",
    "b_points_per_task": "count",
    "peak_rss_mb": "MB",
}

#: printed and stored beside the end-to-end metrics, but not in the JSON
#: result line: failed_frac is 0 when all is well, and the minimum headroom
#: moves by about 0.2 of its value from seed to seed on linearize-series
REPORTED_ONLY_UNITS = {"failed_frac": "ratio", "err_headroom_digits": "digits"}

PER_LAYER_UNITS = {
    "integrate.integrate.calls": "count",
    "integrate.integrate.self_ms": "ms",
    "integrate.integrate_at.out_times": "count",
    "integrate.b_calls": "count",
    "integrate.b_points": "count",
    "integrate.f_points": "count",
    "cocycle.extract_generator.grid_rounds": "count",
    "cocycle.extract_generator.self_ms": "ms",
    "cocycle.extract_generator_auto.t0_retries": "count",
    "cocycle.evolve_grid.calls": "count",
    "cocycle.evolve_grid.points": "count",
    "cocycle.evolve_grid.self_ms": "ms",
    "cocycle.gamma_grid.calls": "count",
    "cocycle.gamma_grid.self_ms": "ms",
    "cocycle.check_axioms.self_ms": "ms",
    "cocycle.growth_report.self_ms": "ms",
    "cocycle.boundedness_classify.self_ms": "ms",
    "dynamics.flow.calls": "count",
    "dynamics.flow.self_ms": "ms",
    "dynamics.flow_ode.calls": "count",
    "dynamics.flow.ode_share": "ratio",
    "dynamics.build_model.self_ms": "ms",
    "dynamics.build_model.setup_ms": "ms",
    "series.mul.calls": "count",
    "series.mul.self_ms": "ms",
    "series.compose.self_ms": "ms",
    "series.revert.self_ms": "ms",
    "series.evaluate.calls": "count",
    "series.evaluate.self_ms": "ms",
    "algebra.sylvester_resolve.calls": "count",
    "algebra.sylvester_resolve.self_ms": "ms",
    "numpy.svd.calls": "count",
    "algebra.log_norm.calls": "count",
    "algebra.log_norm.self_ms": "ms",
    "algebra.operator_norm.calls": "count",
    "algebra.operator_norm.self_ms": "ms",
    "algebra.mat_exp.calls": "count",
    "algebra.mat_inv.calls": "count",
    "linearize.linearize.self_ms": "ms",
    "linearize.condition_check.self_ms": "ms",
    "linearize.conjugated_generator.self_ms": "ms",
    "linearize.reconstruct_error.self_ms": "ms",
    "linearize.commutative.self_ms": "ms",
    "demos.demo_by_name.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.run_demo.self_ms": "ms",
    "cli.report_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------- set-up


def _require_sources() -> None:
    if not (SRC / "cocycle_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found under {SRC}")


def _import_library():
    _require_sources()
    sys.path.insert(0, str(SRC))
    import cocycle_lab

    if Path(cocycle_lab.__file__).resolve().parent != SRC / "cocycle_lab":
        raise SystemExit(f"error: imported cocycle_lab from {cocycle_lab.__file__}")


def _probe_setup(args) -> list:
    """(wall seconds, speed factor) of fresh processes doing the full set-up,
    timed from spawn to ready; the factor is measured just before and after."""
    from calibrate import speed_factor

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    probes = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        before = speed_factor()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SystemExit(f"error: set-up probe failed (exit {code})")
        probes.append((elapsed, (before + speed_factor()) / 2.0))
    return probes


def _git_commit() -> str:
    """Commit of the checkout; git is kept from searching above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _metadata(args) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cocycle_lab_threads": os.environ["COCYCLE_LAB_THREADS"],
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- timed phase


class Record:
    """One task execution; ``seconds`` is wall time, ``speed`` the speed
    factor around it, so ``ref_seconds`` is the time at reference speed."""

    __slots__ = ("index", "kind", "seconds", "speed", "check", "work")

    def __init__(self, index, kind, seconds, speed, check, work):
        self.index, self.kind, self.seconds, self.speed = index, kind, seconds, speed
        self.check, self.work = check, work

    @property
    def ref_seconds(self) -> float:
        return self.seconds / self.speed


def run_phase(workload, counters, seconds: float, *, whole_passes: bool, recorder=None) -> list:
    """Closed loop over the task list until ``seconds`` have passed and at
    least one full pass is done (``whole_passes``: stop only between passes).

    Only ``task.run`` is timed, counted and traced; checks run after the
    clock stops.  The calibration kernel runs between tasks.  A task that
    raises or misses its reference is recorded as failed and the loop goes on.
    """
    from calibrate import speed_factor
    from workloads import Check

    tasks = workload.tasks
    records = []
    start = time.perf_counter()
    speed_before = speed_factor()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if i >= len(tasks) and elapsed >= seconds and (not whole_passes or i % len(tasks) == 0):
            break
        task = tasks[i % len(tasks)]
        before = counters.snapshot()
        if recorder is not None:
            recorder.begin_task(i)
        counters.active = True
        t0 = time.perf_counter()
        try:
            result, error = task.run(), None
        except Exception as exc:  # a failed task is data, not a harness error
            result, error = None, exc
        dt = time.perf_counter() - t0
        counters.active = False
        if recorder is not None:
            recorder.end_task()
        work = tuple(b - a for a, b in zip(before, counters.snapshot()))
        speed_after = speed_factor()
        speed = (speed_before + speed_after) / 2.0
        speed_before = speed_after
        if error is not None:
            check = Check(False, [], f"raised {type(error).__name__}: {error}")
        else:
            try:
                check = task.check(result)
            except Exception as exc:
                check = Check(False, [], f"check raised {type(exc).__name__}: {exc}")
        if not check.ok:
            print(f"task {i % len(tasks)} ({task.kind}) failed: {check.detail}", file=sys.stderr)
        records.append(Record(i % len(tasks), task.kind, dt, speed, check, work))
        i += 1
    return records


def build_workload(name: str, seed: int, tiny: bool, counters, recorder, workdir):
    """The workload; with a ``recorder``, its set-up is traced as its own
    task, which the per-task figures leave out."""
    import spans
    import workloads

    tracing = spans.recording(recorder, spans.SETUP) if recorder else contextlib.nullcontext()
    with tracing:
        return workloads.build(name, seed, tiny, counters, workdir)


def traced_phase(workload, counters, recorder, seconds: float) -> list:
    """``run_phase`` of whole passes with every traced function replaced."""
    import spans

    patches = spans.install(recorder)
    try:
        return run_phase(workload, counters, seconds, whole_passes=True, recorder=recorder)
    finally:
        patches.undo()


def _passed(records) -> int:
    return sum(1 for r in records if r.check.ok)


def _tasks_per_s(records, raw: bool = False) -> float:
    return _passed(records) / sum(r.seconds if raw else r.ref_seconds for r in records)


def end_to_end(records, setup_probes, b_points_field: int) -> tuple[dict, dict]:
    """End-to-end metrics (times at reference speed) and the notes printed
    beside them, which give the raw wall-clock figures too."""
    times = sorted(r.ref_seconds for r in records)
    raw = sorted(r.seconds for r in records)
    n = len(times)
    beyond = min(TAIL_BEYOND, n - 1)
    tail = times[n - 1 - beyond]
    headroom = HEADROOM_CEILING
    for r in records:
        for err, tol in r.check.errors:
            if err == 0:
                continue
            digits = math.log10(tol / err) if tol > 0 else -HEADROOM_CEILING
            headroom = min(headroom, max(-HEADROOM_CEILING, digits))
    first = {}
    for r in records:
        first.setdefault(r.index, r.work[b_points_field])
    failed = n - _passed(records)
    setup_raw = [wall for wall, _speed in setup_probes]
    metrics = {
        "setup_s": statistics.median(wall / speed for wall, speed in setup_probes),
        "tasks_per_s": _tasks_per_s(records),
        "task_ms_p50": statistics.median(times) * 1e3,
        "task_ms_tail": tail * 1e3,
        "err_headroom_digits": headroom,
        "b_points_per_task": sum(first.values()) / len(first),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_probes)} set-ups; "
                   f"raw {statistics.median(setup_raw):.4g} s",
        "tasks_per_s": f"raw {_tasks_per_s(records, raw=True):.4g} 1/s; "
                       f"median speed factor {statistics.median(r.speed for r in records):.3f}",
        "task_ms_p50": f"{n} tasks; raw {statistics.median(raw) * 1e3:.4g} ms",
        "task_ms_tail": f"p{100.0 * (n - beyond) / n:.1f}, {beyond} of {n} tasks beyond; "
                        f"raw {raw[n - 1 - beyond] * 1e3:.4g} ms",
        "b_points_per_task": f"{len(first)} distinct tasks",
        "failed_frac": f"{failed} of {n}",
    }
    metrics["failed_frac"] = failed / n
    return metrics, notes


def per_layer(recorder, records, plain_records) -> dict:
    """Per-task figures from one traced phase of whole passes."""
    s = recorder.summary()
    calls, self_s, amounts, edges = s["calls"], s["self_s"], s["amounts"], s["edges"]
    n = len(records)
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        layer = name.rsplit(".", 1)[0]
        if name.endswith(".calls"):
            out[name] = calls[layer] / n
        elif name.endswith(".self_ms"):
            out[name] = self_s[layer] * 1e3 / n
    fields = recorder.counters.FIELDS
    scoped = recorder.scoped.get("integrate.integrate", [0] * len(fields))
    out["integrate.b_calls"] = scoped[fields.index("b_calls")] / n
    out["integrate.b_points"] = scoped[fields.index("b_points")] / n
    out["integrate.f_points"] = scoped[fields.index("f_points")] / n
    out["integrate.integrate_at.out_times"] = amounts["integrate.integrate_at"] / n
    out["cocycle.evolve_grid.points"] = amounts["cocycle.evolve_grid"] / n
    out["cocycle.extract_generator.grid_rounds"] = (
        edges[("cocycle.extract_generator", "cocycle.gamma_grid")] / n)
    out["cocycle.extract_generator_auto.t0_retries"] = (
        edges[("cocycle.extract_generator_auto", "cocycle.extract_generator")]
        - calls["cocycle.extract_generator_auto"]) / n
    flows = calls["dynamics.flow"]
    out["dynamics.flow.ode_share"] = (
        edges[("dynamics.flow", "dynamics.flow_ode")] / flows if flows else 0.0)
    out["dynamics.build_model.setup_ms"] = (
        recorder.summary(setup=True)["self_s"]["dynamics.build_model"] * 1e3)
    out["cli.report_bytes"] = sum(r.check.extra.get("cli.report_bytes", 0) for r in records) / n
    out["trace.overhead_frac"] = _tasks_per_s(plain_records) / _tasks_per_s(records) - 1.0
    return out


# ---------------------------------------------------------------- entry points


def _print_metrics(title: str, metrics: dict, units: dict, notes: dict) -> None:
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:44s} {value:16.6g} {units[name]}{note}")


def run_one(args) -> int:
    _require_sources()
    setup_probes = [] if (args.trace or args.setup_probe) else _probe_setup(args)
    _import_library()
    import spans
    from counting import Counters

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    counters = Counters()
    recorder = spans.Recorder(counters) if args.trace else None
    try:
        workload = build_workload(args.workload, args.seed, args.tiny, counters, recorder, workdir)
        patches = spans.Patches()
        for owner, attr, value in workload.patches:
            patches.set(owner, attr, value)
        try:
            try:
                workload.tasks[0].run()
            except Exception as exc:  # the timed loop records it as a failure
                print(f"warm-up task raised {type(exc).__name__}: {exc}", file=sys.stderr)
            if args.setup_probe:
                print("ready", flush=True)
                return 0
            return _measure(args, workload, counters, recorder, setup_probes)
        finally:
            patches.undo()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, counters, recorder, setup_probes) -> int:
    meta = _metadata(args)
    print("# meta " + json.dumps(meta, sort_keys=True))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    title = f"{args.workload} (seed {args.seed}, {len(workload.tasks)} tasks per pass)"
    if not args.trace:
        records = run_phase(workload, counters, args.seconds, whole_passes=False)
        metrics, notes = end_to_end(records, setup_probes, counters.FIELDS.index("b_points"))
        units = dict(END_TO_END_UNITS, **REPORTED_ONLY_UNITS)
        _print_metrics(title, metrics, units, notes)
        reported = {k: metrics[k] for k in END_TO_END_UNITS}
        notes["reported_only"] = {k: metrics[k] for k in REPORTED_ONLY_UNITS}
        all_records = records
    else:
        plain = run_phase(workload, counters, args.seconds / 2, whole_passes=True)
        traced = traced_phase(workload, counters, recorder, args.seconds / 2)
        metrics = per_layer(recorder, traced, plain)
        notes = {"trace.overhead_frac": f"{len(plain)} plain vs {len(traced)} traced tasks"}
        _print_metrics(title + ", traced", metrics, PER_LAYER_UNITS, notes)
        recorder.dump(OUT / f"spans-{tag}.json")
        units, reported, all_records = PER_LAYER_UNITS, metrics, plain + traced
    failed = sum(1 for r in all_records if not r.check.ok)
    result = {
        "correct": failed == 0,
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"meta": meta, "result": result, "notes": notes,
         "setup_probes": [{"wall_s": w, "speed": f} for w, f in setup_probes],
         "tasks": [{"index": r.index, "kind": r.kind, "wall_s": r.seconds, "speed": r.speed,
                    "errors": r.check.errors} for r in all_records]},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    rows, status = [], 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            status = 1
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print("summary")
    for name, result in rows:
        print(f"  {name:18s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
