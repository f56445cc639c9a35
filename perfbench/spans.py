"""Span recorder for the traced run, timed from outside the library.

Each public function is replaced, for the length of the traced phase, at
every binding its callers look up: the defining module, the package
namespace, and each module that imported it by name (``linearize`` and
``cli`` import ``sylvester_resolve``, ``operator_norm`` and ``evolve_grid``
that way).  Methods (``SemigroupModel.flow``, the series ``__mul__`` and
``evaluate``) are replaced on their class.  Spans stay in memory as rows
``[name, start, end, parent, task, amount]`` and are written out when the
run ends; a span's self time is its duration minus the time its direct
children cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# by module path: the package re-exports a function named ``linearize``
algebra, cli, cocycle, demos, dynamics, integrate, linearize, series = (
    importlib.import_module(f"cocycle_lab.{name}")
    for name in ("algebra", "cli", "cocycle", "demos", "dynamics", "integrate", "linearize", "series")
)


def _len_arg(pos: int, key: str):
    def amount(args, kwargs):
        return len(kwargs[key] if key in kwargs else args[pos])

    return amount


# span name -> functions recorded under it; an optional third item sizes the
# call (points for evolve_grid, output times for integrate_at)
FUNCTION_SPANS = (
    ("integrate.integrate", integrate.integrate),
    ("integrate.integrate_at", integrate.integrate_at, _len_arg(1, "t_values")),
    ("cocycle.evolve_grid", cocycle.evolve_grid, _len_arg(3, "z_values")),
    ("cocycle.gamma_grid", cocycle.gamma_grid),
    ("cocycle.extract_generator", cocycle.extract_generator),
    ("cocycle.extract_generator_auto", cocycle.extract_generator_auto),
    ("cocycle.check_axioms", cocycle.check_axioms),
    ("cocycle.growth_report", cocycle.growth_report),
    ("cocycle.boundedness_classify", cocycle.boundedness_classify),
    ("dynamics.flow_ode", dynamics.flow_ode),
    ("dynamics.build_model", dynamics.build_model),
    ("series.compose", series.compose),
    ("series.revert", series.revert),
    ("algebra.sylvester_resolve", algebra.sylvester_resolve),
    ("algebra.log_norm", algebra.log_norm),
    ("algebra.operator_norm", algebra.operator_norm),
    ("algebra.mat_exp", algebra.mat_exp),
    ("algebra.mat_inv", algebra.mat_inv),
    ("linearize.linearize", linearize.linearize),
    ("linearize.condition_check", linearize.condition_check),
    ("linearize.conjugated_generator", linearize.conjugated_generator),
    ("linearize.reconstruct_error", linearize.reconstruct_error),
    ("linearize.commutative", linearize.commutative_linearize_interior),
    ("linearize.commutative", linearize.commutative_linearize_nofix),
    ("demos.demo_by_name", demos.demo_by_name),
    ("cli.main", cli.main),
    ("cli.run_demo", cli.run_demo),
)

METHOD_SPANS = (
    ("dynamics.flow", dynamics.SemigroupModel, ("flow",)),
    ("series.mul", series._Series, ("__mul__",)),
    # ``__call__ = evaluate`` is bound at class creation, so both names
    ("series.evaluate", series.ScalarSeries, ("evaluate", "__call__")),
    ("series.evaluate", series.MatrixSeries, ("evaluate", "__call__")),
)

# counted without a span, so numpy's time stays in its caller's self time
COUNT_ONLY = (("numpy.svd", np.linalg, "svd"),)

# spans whose B and f work is attributed to their layer
SCOPED = ("integrate.integrate",)

# task id of the workload's set-up, which the per-task figures leave out
SETUP = "setup"


class Recorder:
    """In-memory spans plus the counter deltas of scoped spans."""

    def __init__(self, counters):
        self.counters = counters
        self.spans: list = []
        self.stack: list = []
        self.task = None
        self.active = False
        self.counts: Counter = Counter()
        self.scoped: dict = defaultdict(lambda: [0] * len(counters.FIELDS))

    def wrap(self, name: str, fn, amount=None):
        rec = self
        scoped = name in SCOPED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            row = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, rec.task,
                   amount(args, kwargs) if amount else 0]
            rec.stack.append(len(rec.spans))
            rec.spans.append(row)
            before = rec.counters.snapshot() if scoped else None
            row[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = time.perf_counter()
                rec.stack.pop()
                if scoped:
                    acc = rec.scoped[name]
                    for i, (a, b) in enumerate(zip(before, rec.counters.snapshot())):
                        acc[i] += b - a

        return wrapper

    def wrap_count(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.active and rec.task != SETUP:
                rec.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def begin_task(self, task_id) -> None:
        self.task = task_id
        self.active = True

    def end_task(self) -> None:
        self.active = False
        self.task = None

    def summary(self, setup: bool = False) -> dict:
        """Per span name: calls, summed amount, summed self time (s), and
        call counts keyed by (parent name, name); over the timed tasks, or
        over the set-up alone when ``setup`` is true."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _task, _amount in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter() if setup else Counter(self.counts)
        amounts: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        edges: Counter = Counter()
        for i, (name, start, end, parent, task, amount) in enumerate(self.spans):
            if (task == SETUP) != setup:
                continue
            calls[name] += 1
            amounts[name] += amount
            self_s[name] += (end - start) - child_time[i]
            edges[(self.spans[parent][0] if parent >= 0 else None, name)] += 1
        return {"calls": calls, "amounts": amounts, "self_s": self_s, "edges": edges}

    def dump(self, path) -> None:
        names = sorted({row[0] for row in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], s, e, p, t, a] for n, s, e, p, t, a in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": ["name", "start", "end", "parent", "task", "amount"],
                    "names": names,
                    "spans": rows,
                    "counts": dict(self.counts),
                    "scoped": {k: dict(zip(self.counters.FIELDS, v))
                               for k, v in self.scoped.items()},
                },
                fh,
            )


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(rec: Recorder) -> Patches:
    """Replace every traced function at each binding that holds it."""
    patches = Patches()
    for name, fn, *amount in FUNCTION_SPANS:
        wrapper = rec.wrap(name, fn, amount[0] if amount else None)
        bound = False
        for module in _library_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.set(module, attr, wrapper)
                    bound = True
        if not bound:
            raise RuntimeError(f"no binding found for {name}")
    for name, cls, attrs in METHOD_SPANS:
        wrapper = rec.wrap(name, cls.__dict__[attrs[0]])
        for attr in attrs:
            patches.set(cls, attr, wrapper)
    for name, owner, attr in COUNT_ONLY:
        patches.set(owner, attr, rec.wrap_count(name, getattr(owner, attr)))
    return patches


@contextlib.contextmanager
def recording(rec: Recorder, task):
    """Trace the calls made inside the block as task ``task``."""
    patches = install(rec)
    rec.begin_task(task)
    try:
        yield
    finally:
        rec.end_task()
        patches.undo()


def _library_modules() -> list:
    """The package and every loaded submodule: the places a binding can be."""
    return [m for k, m in list(sys.modules.items())
            if k == "cocycle_lab" or k.startswith("cocycle_lab.")]
