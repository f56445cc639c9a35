"""Semicocycle evolution, axiom verification, generator extraction, and
growth analysis.

A semicocycle over a semigroup {F_t} is a family Gamma_t of matrix-valued
holomorphic maps with Gamma_{t+s}(z) = Gamma_t(F_s(z)) Gamma_s(z) and
Gamma_0 = I.  Every such family solves the coupled evolution problem

    du/dt = f(u),            u(0) = z,
    dG/dt = B(u(t)) G,       G(0) = I,

where B is the cocycle generator; conversely the solver below turns any
holomorphic B into a semicocycle.  Growth is controlled by the logarithmic
norm of B over invariant disks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import integrate as _int
from .algebra import as_matrix, as_pairs, log_norm, operator_norm
from .dynamics import RationalMap, SemigroupModel, _disk_guard, _Rational
from .errors import (
    NoInteriorFixedPointError,
    NotInvariantError,
    OutOfDomainError,
    SamplePointIsFixedPointError,
    VNotInvertibleError,
)

#: angles of the 64 trapezoid nodes on the small circle of every
#: Cauchy-integral derivative
_CAUCHY_THETAS = 2.0 * np.pi * np.arange(64) / 64

#: 16-node Gauss-Legendre rule on [-1, 1] for extraction's time average
#: (geometric convergence, as Gamma_s is analytic in s); 8 nodes would hide
#: that the average of exp(20 pi i s) over [0, 0.1] is exactly singular
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


class CocycleGenerator(_Rational):
    """Matrix-valued rational map z -> P(z) / q(z) with square matrix
    polynomial coefficients ``num[k]`` and scalar denominator ``den``; one
    n x n matrix ``num`` is the constant P."""

    _what = "generator"
    _den_axes = (..., None, None)

    def __post_init__(self):
        self.num = np.asarray(self.num, dtype=complex)
        if self.num.ndim == 2:
            self.num = self.num[None, :, :]
        if self.num.ndim != 3 or self.num.shape[1] != self.num.shape[2]:
            raise ValueError("numerator coefficients must have shape (d+1, n, n)")
        super().__post_init__()

    @property
    def dim(self) -> int:
        return self.num.shape[1]

    @classmethod
    def constant(cls, b0) -> "CocycleGenerator":
        return cls(as_matrix(b0)[None, :, :])

    @classmethod
    def scalar(cls, num, den=(1.0,)) -> "CocycleGenerator":
        """1x1 generator from scalar polynomial coefficients."""
        n = np.atleast_1d(np.asarray(num, dtype=complex))
        return cls(n[:, None, None], den)


def _generator_dim(B, probe: complex) -> int:
    if hasattr(B, "dim"):
        return int(B.dim)
    return as_matrix(B(probe)).shape[0]


def _generator_batch(B, u: np.ndarray, n: int) -> np.ndarray:
    """B at every point of ``u`` in one call; B must map m points to an
    array of shape (m, n, n)."""
    out = np.asarray(B(u), dtype=complex)
    if out.shape != (u.shape[0], n, n):
        raise ValueError(
            f"generator returned shape {out.shape} for {u.shape[0]} points, "
            f"expected {(u.shape[0], n, n)}"
        )
    return out


def evolve_grid(
    model: SemigroupModel,
    B,
    t_values: Sequence[float],
    z_values: Sequence[complex],
    tol: float = 1e-11,
) -> np.ndarray:
    """Gamma_t(z) for every t in ``t_values`` and z in ``z_values``.

    One adaptive integration carries all the z-points simultaneously;
    returns an array of shape (len(t_values), len(z_values), n, n).  ``B``
    is called on the whole batch at once: given an array of m points it
    must return an array of shape (m, n, n), else ValueError is raised.
    """
    zs = np.asarray(list(z_values), dtype=complex)
    ts = [float(t) for t in t_values]
    n = _generator_dim(B, complex(zs[0]) if zs.size else 0.0)
    m = zs.shape[0]
    f = model.f

    y0 = np.concatenate([zs, np.tile(np.eye(n, dtype=complex).ravel(), m)])

    def rhs(_t, y):
        u = y[:m]
        g = y[m:].reshape(m, n, n)
        bu = _generator_batch(B, u, n)
        return np.concatenate([f(u), (bu @ g).ravel()])

    states = _int.integrate_at(rhs, ts, y0, tol=tol, guard=_disk_guard(m))
    return states[:, m:].reshape(len(ts), m, n, n)


def evolve(model: SemigroupModel, B, t: float, z: complex, tol: float = 1e-11) -> np.ndarray:
    """Solve the evolution problem up to time t at the point z."""
    return evolve_grid(model, B, [float(t)], [complex(z)], tol=tol)[0, 0]


def make_evolve_oracle(model: SemigroupModel, B, tol: float = 1e-11):
    """Wrap (model, B) as an oracle Gamma(t, z) (see ``gamma_grid``): one
    ``evolve_grid`` call over the times (nonnegative, ascending) and points."""

    def gamma(t, z):
        ts, zs = np.asarray(t, dtype=float), np.asarray(z, dtype=complex)
        out = evolve_grid(model, B, ts.ravel(), zs.ravel(), tol=tol)
        return out.reshape(ts.shape + zs.shape + out.shape[2:])

    return gamma


def gamma_grid(gamma, t_values, z_values) -> np.ndarray:
    """Gamma on a (t, z) grid, shape (T, Z, n, n), in one oracle call.

    An oracle ``gamma(t, z)`` has outer-product axes: it returns shape
    t.shape + z.shape + (n, n), so scalar t and z give one n x n matrix.
    Any other shape raises ValueError.
    """
    ts, zs = np.asarray(t_values, dtype=float), np.asarray(z_values, dtype=complex)
    out = np.asarray(gamma(ts, zs), dtype=complex)
    if out.ndim != 4 or out.shape[:3] != ts.shape + zs.shape + out.shape[3:]:
        raise ValueError(f"oracle returned shape {out.shape} for {ts.size} times and "
                         f"{zs.size} points, expected {ts.shape + zs.shape} + (n, n)")
    return out


@dataclass
class AxiomCheckReport:
    """Sampled residuals of the semicocycle axioms plus the invertibility
    margin (smallest singular value seen)."""

    chain_residual: float
    identity_residual: float
    min_singular_value: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.chain_residual <= self.tol
            and self.identity_residual <= self.tol
            and self.min_singular_value > 0.0
        )

    def as_dict(self) -> dict:
        return {
            "chain_residual": self.chain_residual,
            "identity_residual": self.identity_residual,
            "min_singular_value": self.min_singular_value,
            "tol": self.tol,
            "passed": self.passed,
        }


def check_axioms(
    model: SemigroupModel,
    gamma,
    t_values: Sequence[float],
    z_values: Sequence[complex],
    tol: float = 1e-7,
) -> AxiomCheckReport:
    """Verify the chain rule, the identity at t = 0, and invertibility on a
    sample grid.  ``gamma`` is an oracle (see ``gamma_grid``), a closed form
    or ``make_evolve_oracle``, called three times for any grid."""
    zs = np.asarray(list(z_values), dtype=complex)
    ts = sorted(float(t) for t in t_values)

    head = gamma_grid(gamma, [0.0] + ts, zs)  # Gamma_0 and Gamma_s at every z
    n = head.shape[-1]
    identity_residual = float(np.max(operator_norm(head[0] - np.eye(n, dtype=complex))))
    if not ts:
        return AxiomCheckReport(0.0, identity_residual, math.inf, tol)

    # index order [t, s, z]: Gamma_{t+s}(z) against Gamma_t(F_s z) Gamma_s(z)
    sums, where = np.unique(np.add.outer(ts, ts), return_inverse=True)
    lhs = gamma_grid(gamma, sums, zs)[where.reshape(len(ts), -1)]
    fs = np.concatenate([np.atleast_1d(model.flow(s, zs)) for s in ts])
    rhs = gamma_grid(gamma, ts, fs).reshape(lhs.shape) @ head[1:]
    chain = float(np.max(operator_norm(lhs - rhs)))
    min_sv = float(np.min(np.linalg.svd(lhs, compute_uv=False)[..., -1]))
    return AxiomCheckReport(chain, identity_residual, min_sv, tol)


def _cauchy_derivative(values: np.ndarray, radius: float):
    """First derivative at the circle center from samples at the
    ``_CAUCHY_THETAS`` nodes."""
    weights = np.exp(-1j * _CAUCHY_THETAS) / (radius * _CAUCHY_THETAS.shape[0])
    return np.tensordot(weights, values, axes=(0, 0))


def spatial_derivative_check(
    model: SemigroupModel,
    B,
    t: float,
    z: complex,
    *,
    gamma=None,
) -> float:
    """Residual of the identity f(z) Gamma_t'(z) = B(F_t z) Gamma_t(z)
    - Gamma_t(z) B(z).

    The z-derivative is computed by a Cauchy integral over a small circle
    (trapezoid rule is spectrally accurate for holomorphic data).  Raises
    SamplePointIsFixedPointError when |f(z)| < 1e-8.
    """
    f = model.f
    fz = complex(f(z))
    if abs(fz) < 1e-8:
        raise SamplePointIsFixedPointError(f"|f(z)| = {abs(fz):.2e} at z = {z}")
    if gamma is None:
        gamma = make_evolve_oracle(model, B)
    radius = 0.1 * (1.0 - abs(z))
    ring = z + radius * np.exp(1j * _CAUCHY_THETAS)
    vals = gamma_grid(gamma, [t], np.concatenate([[z], ring]))[0]
    g_z = vals[0]
    g_prime = _cauchy_derivative(vals[1:], radius)
    n = g_z.shape[0]
    b_ftz, b_z = _generator_batch(B, np.array([model.flow(t, z), z], dtype=complex), n)
    return operator_norm(fz * g_prime - b_ftz @ g_z + g_z @ b_z)


def extract_generator(
    gamma,
    f: RationalMap,
    z: complex,
    t0: float = 0.1,
) -> np.ndarray:
    """Recover B(z) from samples of a semicocycle.

    Uses the time average V(t0, z) = integral of Gamma_s(z) over [0, t0]:

        B(z) = V^{-1} [Gamma_{t0}(z) - I - f(z) dV/dz],

    with V by a 16-node Gauss-Legendre rule on [0, t0] and dV/dz by a
    Cauchy integral, from one call of the oracle ``gamma`` (see
    ``gamma_grid``).  Raises VNotInvertibleError when V is numerically
    singular (sigma_min <= 1e-8 max(sigma_max, t0), the one SVD of V), and
    callers retry with a smaller t0 (``extract_generator_auto``).
    """
    if t0 <= 0:
        raise ValueError("t0 must be positive")
    radius = 0.1 * (1.0 - abs(z))
    points = np.concatenate([[complex(z)], z + radius * np.exp(1j * _CAUCHY_THETAS)])

    half = 0.5 * t0
    s_nodes = np.append(half * (_GAUSS_NODES + 1.0), t0)
    vals = gamma_grid(gamma, s_nodes, points)  # (17, 65, n, n)
    v_vals = half * np.tensordot(_GAUSS_WEIGHTS, vals[:-1], axes=(0, 0))
    gamma_t0 = vals[-1, 0]

    v_z = v_vals[0]
    sv = np.linalg.svd(v_z, compute_uv=False)
    # V ~ t0 * I for small t0, so t0 is the natural singularity scale
    if sv[-1] <= 1e-8 * max(sv[0], t0):
        raise VNotInvertibleError(f"V(t0={t0}, z={z}) is numerically singular")
    dv = _cauchy_derivative(v_vals[1:], radius)
    return np.linalg.solve(v_z, gamma_t0 - np.eye(len(v_z), dtype=complex) - complex(f(z)) * dv)


def extract_generator_auto(gamma, f, z):
    """extract_generator with the halving-t0 retry policy: six tries from
    t0 = 0.1."""
    last, t0 = None, 0.1
    for _ in range(6):
        try:
            return extract_generator(gamma, f, z, t0)
        except VNotInvertibleError as exc:
            last = exc
            t0 /= 2.0
    raise last


@dataclass
class GrowthReport:
    """Exponential-growth verification on an invariant disk.

    ``k_mu`` is the sampled supremum of the logarithmic norm of B over the
    disk boundary (subharmonicity makes boundary sampling exact in the
    limit); the bound exp(k_mu * t) is then checked against sampled
    cocycle norms.
    """

    radius: float
    k_mu: float
    max_violation: float
    samples: list  # rows (t, z, gamma_norm, bound, violation)

    def as_dict(self) -> dict:
        return {
            "radius": self.radius,
            "k_mu": self.k_mu,
            "max_violation": self.max_violation,
            "samples": [
                {
                    "t": t,
                    "z": as_pairs(z),
                    "gamma_norm": g,
                    "bound": b,
                    "violation": v,
                }
                for (t, z, g, b, v) in self.samples
            ],
        }

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "z_re", "z_im", "gamma_norm", "bound", "violation"])
            for (t, z, g, b, v) in self.samples:
                writer.writerow([t, z.real, z.imag, g, b, v])


def growth_report(
    model: SemigroupModel,
    B,
    r: float,
    *,
    t_values: Sequence[float] = (0.25, 0.5, 1.0, 2.0, 3.0),
    gamma=None,
) -> GrowthReport:
    """Logarithmic-norm growth bound on the disk |z - z0| <= r.

    Refuses an ``r`` that is not a positive finite number and an empty
    ``t_values`` (ValueError).  Checks forward invariance on sampled
    trajectories (NotInvariantError when one leaves the disk by more than
    1e-7), computes k_mu = sup of log_norm(B) over 256 points of the
    boundary circle, and records any excess of sampled ||Gamma_t(z)|| over
    exp(k_mu t) at every 16th of those points, from one call of the oracle
    ``gamma`` (see ``gamma_grid``), the only way Gamma is chosen; the
    default is ``make_evolve_oracle`` at tol 1e-10.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"growth_report needs a positive finite radius, got {r!r}")
    if len(t_values) == 0:
        raise ValueError("growth_report needs at least one time")
    if not model.is_interior:
        raise NoInteriorFixedPointError("growth_report needs an interior fixed point model")
    z0 = model.z0
    thetas = 2.0 * np.pi * np.arange(256) / 256
    ring = z0 + r * np.exp(1j * thetas)
    if np.any(np.abs(ring) >= 1.0):
        raise OutOfDomainError("disk is not contained in the unit disk")

    n = _generator_dim(B, complex(ring[0]))
    k_mu = float(np.max(log_norm(_generator_batch(B, ring, n))))

    sample_ring = ring[::16]
    for t in t_values:
        moved = np.atleast_1d(model.flow(float(t), sample_ring))
        drift = np.max(np.abs(moved - z0)) - r
        if drift > 1e-7:
            raise NotInvariantError(
                f"trajectory left the disk by {drift:.2e} at t = {t}"
            )

    if gamma is None:
        gamma = make_evolve_oracle(model, B, tol=1e-10)
    vals = gamma_grid(gamma, list(t_values), sample_ring)
    samples = []
    for t, row in zip(t_values, operator_norm(vals).tolist()):
        bound = math.exp(k_mu * float(t))
        samples += [(float(t), complex(z), g, bound, max(0.0, g - bound))
                    for z, g in zip(sample_ring, row)]
    max_violation = max([0.0] + [s[-1] for s in samples])
    return GrowthReport(r, k_mu, max_violation, samples)


@dataclass
class BoundednessFit:
    """Affine fit of log sup-norms against t: log M + K t.

    ``kind`` is "bounded" when the fit residual stays at or under 1, else
    "unbounded" (super-exponential growth of the sampled suprema).
    """

    kind: str
    log_m: float
    rate: float
    residual: float
    sups: list  # rows (t, sup_norm)

    @property
    def m_const(self) -> float:
        return math.exp(self.log_m)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "M": self.m_const,
            "K": self.rate,
            "residual": self.residual,
            "sups": [[t, s] for (t, s) in self.sups],
        }


def boundedness_classify(
    gamma,
    t_values: Sequence[float],
    z_points: Sequence[complex],
) -> BoundednessFit:
    """Fit sup-norm growth over ``z_points`` to M exp(K t).

    The points may be a boundary circle (sup over a disk, by the maximum
    principle) or trajectory samples.  ``gamma`` is an oracle (see
    ``gamma_grid``), called once on the whole grid.  A residual above 1
    flags super-exponential growth.  Fewer than two distinct times fit
    nothing (ValueError).
    """
    ts = np.asarray([float(t) for t in t_values])
    if np.unique(ts).size < 2:
        raise ValueError("boundedness_classify needs at least two distinct times")
    vals = gamma_grid(gamma, ts, list(z_points))
    sups = operator_norm(vals).max(axis=1)
    logs = np.log(sups)
    design = np.stack([np.ones_like(ts), ts], axis=1)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    residual = float(np.max(np.abs(logs - design @ coef)))
    kind = "bounded" if residual <= 1.0 else "unbounded"
    return BoundednessFit(kind, float(coef[0]), float(coef[1]), residual, list(zip(ts.tolist(), sups.tolist())))
