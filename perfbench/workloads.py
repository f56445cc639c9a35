"""The four seeded workloads and their reference checks.

A workload is a fixed list of tasks built from ``--seed``.  The seed draws
every value (points, times, coefficients, semigroup parameters); the mix of
task kinds and sizes is fixed per workload, so figures from different seeds
describe the same amount of work.  ``run`` is the timed call into the
library's public API; ``check`` compares its output with a reference outside
the timed section; ``digest`` gives the exact bytes of an output, for the
bit-identity check of the counting wrappers.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import cocycle_lab as cl
from cocycle_lab import cli, demos

from counting import Counters, wrap_generator, wrap_map

@dataclass
class Check:
    ok: bool
    errors: list = field(default_factory=list)  # (err, tol) pairs
    detail: str = ""
    extra: dict = field(default_factory=dict)  # per-layer figures


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Check]
    digest: Callable[[object], bytes]


@dataclass
class Workload:
    tasks: list
    patches: list = field(default_factory=list)  # (owner, attr, value)


def _opnorms(a: np.ndarray) -> np.ndarray:
    return np.linalg.norm(a, ord=2, axis=(-2, -1))


def _disk_points(rng, count: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.random(count)) * np.exp(2j * np.pi * rng.random(count))


def _stratified_points(rng, count: int, radius: float) -> np.ndarray:
    """Uniform in the disk, one point per equal-area ring, so that every
    seed places a point near the rim, where extraction is least accurate."""
    u = (np.arange(count) + rng.random(count)) / count
    return radius * np.sqrt(u) * np.exp(2j * np.pi * rng.random(count))


def _tol_check(err: float, tol: float, what: str) -> Check:
    ok = bool(err <= tol)
    return Check(ok, [(float(err), tol)], "" if ok else f"{what} error {err:.3e} > {tol:.0e}")


def _array_digest(a) -> bytes:
    a = np.ascontiguousarray(a)
    return str(a.shape).encode() + a.tobytes()


class _Wrap:
    """Counting wrappers when ``counters`` is given, identity otherwise."""

    def __init__(self, counters: Optional[Counters]):
        self.counters = counters

    def B(self, gen):
        return gen if self.counters is None else wrap_generator(gen, self.counters)

    def f(self, rmap):
        return rmap if self.counters is None else wrap_map(rmap, self.counters)

    def entry(self, entry):
        return dataclasses.replace(entry, f=self.f(entry.f), generator=self.B(entry.generator))


# ---------------------------------------------------------------- extract-narrow

EXTRACT_ORACLE_TOL = 1e-12
EXTRACT_TOL = 1e-6


def extract_narrow(rng, tiny: bool, wrap: _Wrap, workdir: Path) -> Workload:
    tasks = []
    for entry in demos.demo_catalog():
        # 3 points per scalar demo and 1 per 2x2 demo: the median then falls
        # inside the cheaper scalar cluster and the tail inside the 2x2 one
        per_demo = 1 if tiny or entry.dim > 1 else 3
        wrapped = wrap.entry(entry)
        oracle = cl.make_evolve_oracle(wrapped.model(), wrapped.generator, tol=EXTRACT_ORACLE_TOL)
        for z in _stratified_points(rng, per_demo, 0.45):
            reference = np.asarray(entry.generator(z), dtype=complex).reshape(entry.dim, entry.dim)

            def check(out, reference=reference):
                return _tol_check(float(_opnorms(out - reference)), EXTRACT_TOL, "generator")

            tasks.append(Task(
                kind=entry.name,
                # looked up when the task runs, so that a traced binding is seen
                run=lambda oracle=oracle, f=wrapped.f, z=complex(z): (
                    cl.extract_generator_auto(oracle, f, z)),
                check=check,
                digest=_array_digest,
            ))
    return Workload(tasks)


# ---------------------------------------------------------------- evolve-wide

EVOLVE_TOL = 2e-8
GROWTH_VIOLATION_TOL = 1e-9
CHAIN_TOL = 1e-7


#: output times of the evolve grids; fixed, so that the seed moves the
#: points and coefficients but not the integrator's restart schedule
EVOLVE_TIMES = (0.3, 0.6, 0.9, 1.2, 1.5)


def _evolve_task(entry, wrapped, model, rng, size: int) -> Task:
    zs = _disk_points(rng, size, 0.7)
    ts = EVOLVE_TIMES

    def check(out):
        ref = np.array([[entry.oracle(t, complex(z)) for z in zs] for t in ts])
        return _tol_check(float(np.max(_opnorms(out - ref))), EVOLVE_TOL, "evolve")

    return Task(
        kind=f"evolve_grid/{entry.name}/{size}",
        run=lambda: cl.evolve_grid(model, wrapped.generator, ts, zs),
        check=check,
        digest=_array_digest,
    )


def _growth_task(rng, wrap: _Wrap) -> Task:
    c = complex(_disk_points(rng, 1, 0.6)[0])
    model = cl.build_model(wrap.f(cl.RationalMap([0.0, -1.0, c])))
    scale = np.array([0.5, 0.3, 0.3])[:, None, None]
    num = scale * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
    B = wrap.B(cl.CocycleGenerator(num))
    zs = _disk_points(rng, 4, 0.5)

    def run():
        rep = cl.growth_report(model, B, 0.4)
        ax = cl.check_axioms(model, cl.make_evolve_oracle(model, B), (0.3, 0.7), zs, tol=CHAIN_TOL)
        return rep, ax

    def check(out):
        rep, ax = out
        growth = _tol_check(rep.max_violation, GROWTH_VIOLATION_TOL, "growth bound")
        chain = _tol_check(ax.chain_residual, CHAIN_TOL, "chain rule")
        ok = growth.ok and chain.ok and ax.passed
        detail = "; ".join(d for d in (growth.detail, chain.detail) if d) or (
            "" if ok else "axiom check failed")
        return Check(ok, growth.errors + chain.errors, detail)

    def digest(out):
        rep, ax = out
        return json.dumps([rep.as_dict(), ax.as_dict()], default=str).encode()

    return Task("growth+axioms", run, check, digest)


def evolve_wide(rng, tiny: bool, wrap: _Wrap, workdir: Path) -> Workload:
    # cheap scalar demos at two sizes, 2x2 demos at four: the median then
    # falls inside the middle cluster (small 2x2 grids and growth tasks) and
    # the tail inside the large 2x2 grids
    tasks = []
    for entry in demos.demo_catalog():
        if entry.boundary or entry.oracle is None:
            continue  # the closed-form part runs over f = -z only
        if tiny:
            sizes = (8, 16)
        else:
            sizes = (128, 512) if entry.dim == 1 else (128, 256, 384, 512)
        wrapped = wrap.entry(entry)
        model = wrapped.model()
        tasks.extend(_evolve_task(entry, wrapped, model, rng, size) for size in sizes)
    tasks.extend(_growth_task(rng, wrap) for _ in range(1 if tiny else 6))
    return Workload(tasks)


# ---------------------------------------------------------------- linearize-series

SYLVESTER_TOL = 1e-10


def _conjugated_reference(num: np.ndarray, c: complex, order: int) -> np.ndarray:
    """Exact b_k for B(h^{-1}(w)), h^{-1}(w) = w / (1 + c w), the inverse
    Koenigs map of f(z) = -z (1 - c z); polynomial B with numerator ``num``."""
    b = np.zeros((order + 1,) + num.shape[1:], dtype=complex)
    b[0] = num[0]
    for k in range(1, order + 1):
        for j in range(1, min(k, num.shape[0] - 1) + 1):
            b[k] += num[j] * (math.comb(k - 1, j - 1) * (-c) ** (k - j))
    return b


def _random_similar(rng, diag: np.ndarray) -> np.ndarray:
    n = diag.shape[0]
    s = np.eye(n) + 0.3 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / math.sqrt(n)
    return s @ np.diag(diag) @ np.linalg.inv(s)


#: |c| of f(z) = -z (1 - c z).  At order 64 the Koenigs inverse loses
#: accuracy steeply as |c| nears 0.6, so every task sits there and the seed
#: draws arg c
LINEARIZE_C_MODULUS = 0.6


def _linearize_task(rng, wrap: _Wrap, kind: str, size: int, order: int) -> Task:
    c = LINEARIZE_C_MODULUS * complex(np.exp(2j * np.pi * rng.random()))
    if kind == "generic":
        eig = rng.uniform(0.1, 0.9, size) + 1j * rng.uniform(-0.2, 0.2, size)
        num = np.empty((3, size, size), dtype=complex)
        num[0] = _random_similar(rng, eig)
        num[1:] = 0.3 * (rng.normal(size=(2, size, size)) + 1j * rng.normal(size=(2, size, size))) / size
        gen = cl.CocycleGenerator(num)
        expected = ("linearizable", None)
    else:
        a = float(rng.uniform(-0.5, 0.5))
        b0 = _random_similar(rng, np.array([a, a + size], dtype=complex))
        gen = cl.sharpness_witness(b0, 1.0, size)
        expected = ("obstructed", size)
    b_ref = _conjugated_reference(gen.num, c, order)
    f = wrap.f(cl.RationalMap([0.0, -1.0, c]))
    B = wrap.B(gen)

    def run():
        model = cl.build_model(f, order=order)
        return cl.linearize(model, B, order=order, sylvester_tol=SYLVESTER_TOL)

    def check(out):
        got = (out.status, out.obstructed_at)
        if got != expected:
            return Check(False, [], f"status {got} != {expected}")
        m, lam, b0 = out.m.coeffs, complex(out.condition.lam), b_ref[0]
        if m.shape[0] == 1:
            return Check(True)  # obstructed at order 1: no solved order
        worst = 0.0
        for k in range(1, m.shape[0]):
            rhs = np.einsum("lij,ljk->ik", m[:k], b_ref[k:0:-1])
            res = k * lam * m[k] - (m[k] @ b0 - b0 @ m[k]) - rhs
            # the acceptance rule sylvester_resolve applies to its own solves
            worst = max(worst, float(_opnorms(res)) / max(1.0, float(_opnorms(rhs))))
        return _tol_check(worst, SYLVESTER_TOL, "recursion residual")

    def digest(out):
        return out.status.encode() + str(out.obstructed_at).encode() + _array_digest(out.m.coeffs)

    return Task(f"{kind}/{size}/{order}", run, check, digest)


def linearize_series(rng, tiny: bool, wrap: _Wrap, workdir: Path) -> Workload:
    orders = (12,) if tiny else (48, 56, 64)
    kinds = [("generic", n) for n in (2, 4, 8)] + [("witness", k) for k in (1, 2, 3)]
    tasks = [_linearize_task(rng, wrap, kind, size, order)
             for order in orders for kind, size in kinds]
    return Workload(tasks)


# ---------------------------------------------------------------- cli-demos

_DEVIATION = re.compile(r"max deviation ([0-9.eE+-]+)")


def _pair(x: complex) -> list:
    return [float(x.real), float(x.imag)]


def _scenario(rng, kind: str) -> tuple[dict, Callable, list, tuple]:
    """Scenario over f(z) = -z with a closed-form cocycle.  The coefficient
    ranges are narrow, so that the integrator's step count, and with it
    ``b_points_per_task``, barely moves from seed to seed."""
    ts = list(EVOLVE_TIMES)
    zs = _disk_points(rng, 64, 0.7)
    if kind == "diagonal":
        a1 = float(rng.uniform(0.5, 0.7))
        a2 = a1 - float(rng.uniform(0.4, 0.6))
        b1, b2 = rng.uniform(-0.5, 0.5, 2)
        num = [np.diag([a1, a2]), np.diag([b1, b2])]

        def closed(t, z):
            return np.diag([np.exp(a1 * t + b1 * z * (1 - np.exp(-t))),
                            np.exp(a2 * t + b2 * z * (1 - np.exp(-t)))])

        violated, status = [], ("linearizable", None)
    else:
        a = float(rng.uniform(0.5, 0.7))
        beta = float(rng.uniform(0.8, 1.2))
        num = [np.diag([a, a + 1.0]), np.array([[0.0, beta], [0.0, 0.0]])]

        def closed(t, z):
            ea = np.exp(a * t)
            return np.array([[ea, beta * z * t * ea], [0.0, ea * np.exp(t)]])

        violated, status = [1], ("obstructed", 1)
    data = {
        "semigroup": {"f_num": [[0, 0], [-1, 0]], "f_den": [[1, 0]]},
        "generator": {
            "dim": 2,
            "num_coeffs": [[[_pair(x) for x in row] for row in m.astype(complex)] for m in num],
            "den_coeffs": [[1, 0]],
        },
        "truncation_order": 24,
        "grid": {"t_values": ts, "z_values": [_pair(z) for z in zs]},
    }
    return data, closed, violated, status


def _decode_all(text: str) -> list:
    decoder, pos, out = json.JSONDecoder(), 0, []
    text = text.strip()
    while pos < len(text):
        obj, end = decoder.raw_decode(text, pos)
        out.append(obj)
        pos = end
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


def _cli_task(rng, index: int, demo_name: str, workdir: Path) -> Task:
    kind = "diagonal" if index % 2 == 0 else "jordan"
    data, closed, violated, status = _scenario(rng, kind)
    scenario = workdir / f"scenario-{index}.json"
    scenario.write_text(json.dumps(data), encoding="utf-8")
    demo_out = workdir / f"demo-{index}.json"
    evolve_out = workdir / f"evolve-{index}.json"
    evolve_csv = workdir / f"evolve-{index}.csv"
    commands = [
        ["demo", demo_name, "--out", str(demo_out)],
        ["evolve", "--scenario", str(scenario), "--out", str(evolve_out), "--csv", str(evolve_csv)],
        ["spectrum", "--scenario", str(scenario)],
        ["linearize", "--scenario", str(scenario)],
    ]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes = [cli.main(argv) for argv in commands]
        # a caller reads the reports back; removing them keeps the next pass
        # from checking stale files
        files = [p.read_bytes() if p.exists() else b"" for p in (demo_out, evolve_out, evolve_csv)]
        for p in (demo_out, evolve_out, evolve_csv):
            p.unlink(missing_ok=True)
        return codes, buf.getvalue(), files

    def check(out):
        codes, stdout, files = out
        extra = {"cli.report_bytes": len(stdout.encode()) + sum(len(b) for b in files)}
        if codes != [0, 0, 0, 0]:
            return Check(False, [], f"exit codes {codes}", extra)
        demo = json.loads(files[0])
        evolve = json.loads(files[1])
        spectrum, lin = _decode_all(stdout)
        errors = []
        for item in demo["checks"]:
            if item["check"] == "evolve_matches_oracle":
                errors.append((float(_DEVIATION.search(item["detail"]).group(1)), EVOLVE_TOL))
        gam = np.array([[[complex(*x) for x in row] for row in s["gamma"]] for s in evolve["samples"]])
        ref = np.array([closed(s["t"], complex(*s["z"])) for s in evolve["samples"]])
        evolve_err = float(np.max(_opnorms(gam - ref)))
        errors.append((evolve_err, EVOLVE_TOL))
        problems = []
        if not demo["passed"]:
            problems.append(f"demo {demo_name} failed")
        if evolve_err > EVOLVE_TOL:
            problems.append(f"evolve error {evolve_err:.3e}")
        if spectrum["violated_k"] != violated:
            problems.append(f"violated_k {spectrum['violated_k']} != {violated}")
        if (lin["status"], lin["obstructed_at"]) != status:
            problems.append(f"status {(lin['status'], lin['obstructed_at'])} != {status}")
        return Check(not problems, errors, "; ".join(problems), extra)

    def digest(out):
        codes, stdout, files = out
        return json.dumps(codes).encode() + stdout.encode() + b"".join(files)

    return Task(f"cli/{demo_name}/{kind}", run, check, digest)


def _counting_patches(counters: Counters) -> list:
    """Make the CLI build counting B and f: scenario objects by class, demo
    entries by wrapping what ``demo_by_name`` returns.  The wrapper looks up
    ``demos.demo_by_name`` on each call so a traced binding is honoured."""

    def demo_by_name(name):
        entry = demos.demo_by_name(name)
        entry.f = wrap_map(entry.f, counters)
        entry.generator = wrap_generator(entry.generator, counters)
        return entry

    return [
        (cli, "CocycleGenerator", counters.generator_cls),
        (cli, "RationalMap", counters.map_cls),
        (cli, "demo_by_name", demo_by_name),
    ]


def cli_demos(rng, tiny: bool, wrap: _Wrap, workdir: Path) -> Workload:
    names = [e.name for e in demos.demo_catalog()]
    count = len(names) if tiny else 2 * len(names)
    tasks = [_cli_task(rng, i, names[i % len(names)], workdir) for i in range(count)]
    patches = [] if wrap.counters is None else _counting_patches(wrap.counters)
    return Workload(tasks, patches)


BUILDERS = {
    "extract-narrow": extract_narrow,
    "evolve-wide": evolve_wide,
    "linearize-series": linearize_series,
    "cli-demos": cli_demos,
}


def build(name: str, seed: int, tiny: bool, counters: Optional[Counters], workdir: Path) -> Workload:
    """Workload ``name`` from ``seed``; ``counters=None`` builds it unwrapped."""
    rng = np.random.default_rng([seed, list(BUILDERS).index(name)])
    return BUILDERS[name](rng, tiny, _Wrap(counters), workdir)
