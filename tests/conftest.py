"""Shared test fixtures."""

import collections
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cocycle_lab import integrate, series
from cocycle_lab.algebra import mat_exp
from cocycle_lab.cocycle import CocycleGenerator
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


class Manufactured(NamedTuple):
    """A semicocycle known in closed form: its generator, the flow of f and
    Gamma, each of the last two a function of (t, z) for one t and an array
    of points."""

    generator: CocycleGenerator
    flow: Callable
    gamma: Callable


def matrix_poly(coeffs, z) -> np.ndarray:
    """sum_k coeffs[k] z^k at each point of the 1-d array z: (len(z), n, n)."""
    return np.einsum("pk,kij->pij", np.power.outer(z, np.arange(len(coeffs))), coeffs)


def manufactured(f_coeffs, b0, m_coeffs) -> Manufactured:
    """The method of manufactured solutions for f = a + b z + c z^2 (given as
    [a, b, c]), any n x n B0 and a polynomial M (ascending n x n coefficients)
    with M(z0) = I and det M != 0 on the closed disk: B = adj(M) (B0 M - f M')
    / det M generates Gamma_t(z) = M(F_t z)^-1 e^{t B0} M(z).  F_t is the
    Moebius map of the Riccati flow; B's polynomials are read off exact
    samples at roots of unity."""
    a, b, c = f_coeffs
    b0, m_coeffs = np.asarray(b0, dtype=complex), np.asarray(m_coeffs, dtype=complex)
    n, deg = b0.shape[0], len(m_coeffs) - 1
    samples = np.exp(2j * np.pi * np.arange(n * deg + 2) / (n * deg + 2))  # above both degrees
    m_z = matrix_poly(m_coeffs, samples)
    dm_z = matrix_poly(np.arange(1, deg + 1)[:, None, None] * m_coeffs[1:], samples)
    f_z = (a + b * samples + c * samples**2)[:, None, None]
    det = np.linalg.det(m_z)
    num = det[:, None, None] * np.linalg.solve(m_z, b0 @ m_z - f_z * dm_z)
    den = np.fft.fft(det)[: n * deg + 1] / samples.size
    generator = CocycleGenerator(np.fft.fft(num, axis=0) / samples.size, den)
    mobius = np.array([[b / 2, a], [-c, -b / 2]], dtype=complex)

    def flow(t, z):
        (alpha, beta), (gamma, delta) = mat_exp(t * mobius)
        return (alpha * z + beta) / (gamma * z + delta)

    def cocycle(t, z):
        z = np.asarray(z, dtype=complex)
        m_flow, m_z = matrix_poly(m_coeffs, flow(t, z)), matrix_poly(m_coeffs, z)
        return np.linalg.solve(m_flow, mat_exp(t * b0) @ m_z)

    return Manufactured(generator, flow, cocycle)


def manufactured_case():
    """The manufactured case of f = -z + 0.3 z^2: B0 = [[0.2, 0.3], [0, 0.65]],
    M = I + M1 z + M2 z^2 with M1, M2 each 0.25 times a complex normal 2x2;
    the roots of det M have modulus 1.59 or more.  Returns (Koenigs pair of
    f, M's coefficients, the ``Manufactured``)."""
    rng = np.random.default_rng(7)
    m_coeffs = np.empty((3, 2, 2), dtype=complex)
    m_coeffs[0] = np.eye(2)
    m_coeffs[1:] = 0.25 * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
    pair = koenigs_pair(0.3)
    b0 = np.array([[0.2, 0.3], [0.0, 0.65]])
    return pair, m_coeffs, manufactured([0.0, -1.0, 0.3], b0, m_coeffs)


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
