"""Shared test fixtures."""

import collections
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cocycle_lab import integrate, series
from cocycle_lab.dynamics import RationalMap


class KoenigsPair(NamedTuple):
    """A generator f with its exact Koenigs map h and inverse h^{-1}."""

    f: RationalMap
    h: Callable
    h_inv: Callable


def koenigs_pair(c) -> KoenigsPair:
    """f = -z (1 - c z), fixed point 0 and rate 1: h(z) = z / (1 - c z)
    solves h' f = -h, and h^{-1}(w) = w / (1 + c w) has its pole at
    w = -1/c, so its series converges for |w| < 1/|c|."""
    return KoenigsPair(
        RationalMap([0.0, -1.0, c]), lambda z: z / (1 - c * z), lambda w: w / (1 + c * w)
    )


class SvdCounter:
    """Counts ``np.linalg.svd`` calls on n x n matrices or a stack of them:
    ``full[n]`` those that compute singular vectors, ``by_size[n]`` every
    call (values only or not).  ``np.linalg.norm(a, 2)`` reaches LAPACK
    without ``np.linalg.svd`` and is not counted."""

    def __init__(self, monkeypatch):
        self.full = collections.Counter()
        self.by_size = collections.Counter()
        svd = np.linalg.svd

        def counting(a, full_matrices=True, compute_uv=True, **kw):
            self.full[np.shape(a)[-1]] += bool(compute_uv)
            self.by_size[np.shape(a)[-1]] += 1
            return svd(a, full_matrices, compute_uv, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting)


@pytest.fixture
def svd_counter(monkeypatch):
    return SvdCounter(monkeypatch)


class SolveCounter:
    """Counts ``np.linalg.solve`` and ``np.linalg.inv`` calls by the size n
    of the n x n matrices (or stack of them) they factor."""

    def __init__(self, monkeypatch):
        self.by_size = collections.Counter()
        for name in ("solve", "inv"):
            monkeypatch.setattr(np.linalg, name, self._counted(getattr(np.linalg, name)))

    def _counted(self, fn):
        def counting(a, *args, **kwargs):
            self.by_size[np.shape(a)[-1]] += 1
            return fn(a, *args, **kwargs)

        return counting


@pytest.fixture
def solve_counter(monkeypatch):
    return SolveCounter(monkeypatch)


def non_normal_b0(n, n_scale):
    """B0 = U (D + N) U^H: D diagonal with entries u + 0.3iv, u in [0.1, 0.4],
    v in [-1, 1]; N = n_scale triu(normal, 1) / sqrt(n); U a random unitary.
    Returns (D's entries, the generator numerator [B0, B1]) with B1 a
    complex normal times 0.3 / n."""
    rng = np.random.default_rng(0)
    d = rng.uniform(0.1, 0.4, n) + 0.3j * rng.uniform(-1.0, 1.0, n)
    upper = n_scale * np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    num = np.empty((2, n, n), dtype=complex)
    num[0] = u @ (np.diag(d) + upper) @ u.conj().T
    num[1] = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    return d, num


class ToeplitzCounter:
    """Counts ``series._apply_toeplitz`` calls: one per series product with
    a scalar factor, one per Horner step of a composition."""

    def __init__(self, monkeypatch):
        self.calls = 0
        apply = series._apply_toeplitz

        def counting(toeplitz, other):
            self.calls += 1
            return apply(toeplitz, other)

        monkeypatch.setattr(series, "_apply_toeplitz", counting)


@pytest.fixture
def toeplitz_counter(monkeypatch):
    return ToeplitzCounter(monkeypatch)


class StepCounter:
    """Counts ``integrate._step`` calls (accepted and rejected DOP853
    steps, twelve right-hand-side calls each), and the calls of each
    right-hand side wrapped by ``counted``.  A step count compares only
    with counts of the same pair; the work gates count the points B is
    evaluated at."""

    def __init__(self, monkeypatch):
        self.steps = 0
        self.rhs_calls = 0
        step = integrate._step

        def counting(*args):
            self.steps += 1
            return step(*args)

        monkeypatch.setattr(integrate, "_step", counting)

    def counted(self, rhs):
        def counting(t, y):
            self.rhs_calls += 1
            return rhs(t, y)

        return counting

    def run(self, fn, *args, **kwargs):
        """The result of ``fn(*args, **kwargs)`` and the steps it took."""
        before = self.steps
        result = fn(*args, **kwargs)
        return result, self.steps - before


@pytest.fixture
def step_counter(monkeypatch):
    return StepCounter(monkeypatch)
