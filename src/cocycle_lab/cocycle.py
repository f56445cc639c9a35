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

``evolve_grid`` integrates every point in one state vector with the
DOP853 pair of ``integrate``, as the skew product it is: the base u is
integrated alone, calling f at each stage, and Gamma is its ``integrate.
Fiber``.  B is called once per step, on the base states of all eleven
stages, and once each for the first stage, the starting-step probe, an
accepted step's end stage and an extended step's three stages, so an
integration makes 2 + steps + accepted + extended B calls.  Neither B nor
f may keep its argument.  A ``CocycleGenerator`` evaluates with the point
axis innermost and returns a strided (m, n, n) view.  For n <= 4 the
state holds G as (n, n, m), the point axis last, and B(u) G is one
broadcast multiply into a work array made once per call and one sum, each
a contiguous loop over the m points; for larger n the state holds G as
(m, n, n) and B(u) G is numpy's stacked matmul.  The fiber's ``shape``
hands G and its derivative over in that layout, so a stage reshapes
nothing.  Either way the result has shape (T, m, n, n).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import integrate as _int
from .algebra import as_matrix, as_pairs, log_norm, operator_norm
from .dynamics import RationalMap, SemigroupModel, _disk_guard, _Rational, _require_disk
from .errors import (
    NoInteriorFixedPointError,
    NotInvariantError,
    OutOfDomainError,
    VNotInvertibleError,
)

#: angles of the N = 16 trapezoid nodes on the ring |w - z| = rho = 0.1 (1 -
#: |z|) of extraction's Cauchy derivative and of the interior linearizer's
#: mean about z0.  The rule aliases only Taylor terms of order 1 + mN, m >= 1,
#: so Cauchy estimates on R' = (1 - |z|) / 2 bound its error by (M(R') / R')
#: q^N / (1 - q^N), q = rho / R' = 0.2, q^16 = 6.6e-12: below the oracle's
#: own error amplified by 1 / rho unless V grows steeply toward the rim (at
#: z = 0.99 affine-scalar reads 1.3e-10 relative, 64 nodes 8e-15)
_CAUCHY_THETAS = 2.0 * np.pi * np.arange(16) / 16

#: 16-node Gauss-Legendre rule on [-1, 1] for extraction's time average
#: (geometric convergence, as Gamma_s is analytic in s); 8 nodes would hide
#: that the average of exp(20 pi i s) over [0, 0.1] is exactly singular
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)

#: largest matrix size n for which ``evolve_grid`` holds Gamma as (n, n, m)
#: and forms B(u) G as one broadcast multiply over the point axis and one
#: in-order sum over j; above it Gamma is (m, n, n) and B(u) G is numpy's
#: stacked matmul, which pays about 0.3 us per matrix.  Microseconds per
#: stage product, broadcast / matmul, with B from one point-last call on
#: eleven stages of m points, best of 15 (2-vCPU Xeon, numpy 2.4, one BLAS
#: thread):
#:
#:       m     n = 2        n = 3        n = 4        n = 5
#:      16    5.2 / 8.1    6.2 / 8.9    8.3 / 9.3   12.0 / 11.6
#:      65    5.6 / 24.7   9.3 / 30.2  14.8 / 31.5  26.2 / 33.1
#:     128    7.0 / 41.4  13.1 / 53.9  23.7 / 60.6  42.4 / 77.6
#:     512   14.6 / 126   31.2 / 138   57.3 / 144    130 / 294
#:
#: n = 4 wins at every size; n = 5 wins from 65 points up but not at 16
#: (about one extraction's 17), so the cut is 4
_BROADCAST_MAX_DIM = 4


class CocycleGenerator(_Rational):
    """Matrix-valued rational map z -> P(z) / q(z) with square matrix
    polynomial coefficients ``num[k]`` and scalar denominator ``den``; one
    n x n matrix ``num`` is the constant P.  Called on points of shape S
    it returns shape S + (n, n), evaluated with the point axes innermost
    (see ``series.horner``): a strided view, not a C-contiguous array."""

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

    One ``integrate_at`` call carries all the z-points simultaneously to
    every time, so the times are nonnegative, in any order and may repeat;
    returns an array of shape (len(t_values), len(z_values), n, n).  ``B``
    is called on whole batches, the points of every stage of a step at
    once: given an array of points it must return an array of shape
    (len(points), n, n), which may be a strided view, else ValueError is
    raised.  The integration builds its stage views once (``integrate``'s
    plan), so no stage allocates an array.
    """
    zs = np.asarray(list(z_values), dtype=complex)
    _require_disk(zs)
    n = _generator_dim(B, complex(zs[0]) if zs.size else 0.0)
    m = zs.shape[0]
    f = model.f

    # Gamma's block of the state: (n, n, m), the point axis innermost, when
    # B(u) G is broadcast; (m, n, n) for numpy's stacked matmul
    broadcast = n <= _BROADCAST_MAX_DIM
    eye = np.eye(n, dtype=complex).ravel()
    y0 = np.concatenate([zs, np.repeat(eye, m) if broadcast else np.tile(eye, m)])

    # (n, n, n, m): every product B[i, j, p] G[j, k, p] of one stage
    terms = np.empty((n, n, n, m), dtype=complex) if broadcast else None

    def lift(u):
        # B at the base states of every stage at once: a CocycleGenerator
        # returns (r m, n, n) as a view of its point-last (n, n, r m) block
        bu = _generator_batch(B, u.ravel(), n).reshape(u.shape + (n, n))
        if not broadcast:
            return lambda i, g, out: np.matmul(bu[i], g, out=out)
        bu = bu.transpose(0, 2, 3, 1)[:, :, :, None]  # (r, n, n, 1, m)

        def times(i, g, out):
            # (B G)[i, k, p] = sum_j B[i, j, p] G[j, k, p]: every product in
            # one loop over p, then the sum over j in order
            np.multiply(bu[i], g, out=terms)
            np.add.reduce(terms, axis=1, out=out)

        return times

    shape = (n, n, m) if broadcast else (m, n, n)
    states = _int.integrate_at(lambda _t, u: f(u), t_values, y0, tol=tol, guard=_disk_guard(m),
                               fiber=_int.Fiber(m, lift, shape))[:, m:]
    if broadcast:
        # one copy back to point-major order, so the result is not a
        # transposed view
        return np.ascontiguousarray(states.reshape(len(states), n, n, m).transpose(0, 3, 1, 2))
    return states.reshape(len(states), m, n, n)


def make_evolve_oracle(model: SemigroupModel, B, tol: float = 1e-11):
    """Wrap (model, B) as an oracle Gamma(t, z) (see ``gamma_grid``): one
    ``evolve_grid`` call over the times (nonnegative, in any order, repeats
    allowed) and the points."""

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
    or ``make_evolve_oracle``, called twice for any grid: once on the points
    at 0, at every t and at every t + s, once on every F_s(z) at every t.
    An empty point grid is refused (ValueError) before any call."""
    zs = np.asarray(list(z_values), dtype=complex)
    if not zs.size:
        raise ValueError("check_axioms needs at least one point in z_values")
    ts = np.asarray([float(t) for t in t_values])
    k = ts.size

    # Gamma_0, then Gamma_s and Gamma_{t+s} in index order [t, s], at every z
    grid = gamma_grid(gamma, np.concatenate([[0.0], ts, np.add.outer(ts, ts).ravel()]), zs)
    n = grid.shape[-1]
    identity_residual = float(np.max(operator_norm(grid[0] - np.eye(n, dtype=complex))))
    if not k:
        return AxiomCheckReport(0.0, identity_residual, math.inf, tol)

    # index order [t, s, z]: Gamma_{t+s}(z) against Gamma_t(F_s z) Gamma_s(z)
    lhs = grid[1 + k:].reshape(k, k, -1, n, n)
    fs = model.flow(ts, zs).ravel()
    rhs = gamma_grid(gamma, ts, fs).reshape(lhs.shape) @ grid[1 : 1 + k]
    chain = float(np.max(operator_norm(lhs - rhs)))
    min_sv = float(np.min(np.linalg.svd(lhs, compute_uv=False)[..., -1]))
    return AxiomCheckReport(chain, identity_residual, min_sv, tol)


def extract_generator(
    gamma,
    f: RationalMap,
    z,
    t0: float = 0.1,
) -> np.ndarray:
    """Recover B(z) from samples of a semicocycle.

    Uses the time average V(t0, z) = integral of Gamma_s(z) over [0, t0]:

        B(z) = V^{-1} [Gamma_{t0}(z) - I - f(z) dV/dz],

    with V by a 16-node Gauss-Legendre rule on [0, t0] and dV/dz by the
    trapezoid rule on the 16-node ring ``_CAUCHY_THETAS`` about z, whose
    comment bounds its error.  One call of the oracle ``gamma`` (see
    ``gamma_grid``) covers every point of an array z and their rings; the
    result has shape z.shape + (n, n).  A t0 that is not positive and finite
    raises ValueError.  A numerically singular V (sigma_min <= 1e-8
    max(sigma_max, t0), one SVD per point) raises VNotInvertibleError, whose
    ``singular`` marks those points and ``partial`` holds B at the others;
    callers retry them with a smaller t0 (``extract_generator_auto``).
    """
    if not 0.0 < t0 < math.inf:
        raise ValueError(f"t0 must be positive and finite, got {t0!r}")
    _require_disk(z)
    zs = np.asarray(z, dtype=complex)
    centers = zs.ravel()
    # hypot, as abs(complex) takes it, so a scalar z keeps its bits
    radius = 0.1 * (1.0 - np.hypot(centers.real, centers.imag))[:, None]
    points = np.append(centers, centers[:, None] + radius * np.exp(1j * _CAUCHY_THETAS))
    half = 0.5 * t0
    s_nodes = np.append(half * (_GAUSS_NODES + 1.0), t0)
    vals = gamma_grid(gamma, s_nodes, points)  # (17, Z (1 + N), n, n)
    v_vals = half * (_GAUSS_WEIGHTS @ vals[:-1].reshape(16, -1)).reshape(vals.shape[1:])

    v_z, eye = v_vals[: centers.size], np.eye(vals.shape[-1], dtype=complex)
    sv = np.linalg.svd(v_z, compute_uv=False)
    # V ~ t0 * I for small t0, so t0 is the natural singularity scale
    singular = sv[:, -1] <= 1e-8 * np.maximum(sv[:, 0], t0)
    # dV/dz at each ring's center: the trapezoid Cauchy integral on the ring
    weights = np.exp(-1j * _CAUCHY_THETAS) / (radius * _CAUCHY_THETAS.size)
    dv = (weights[:, None] @ v_vals[len(v_z) :].reshape(weights.shape + (-1,))).reshape(v_z.shape)
    rhs = vals[-1, : len(v_z)] - eye - np.asarray(f(centers))[:, None, None] * dv
    out = np.linalg.solve(np.where(singular[:, None, None], eye, v_z), rhs)
    if singular.any():
        out[singular] = np.nan
        raise VNotInvertibleError(f"V(t0={t0}, z={z if zs.ndim == 0 else centers[singular]}) is "
                                  "numerically singular", out.reshape(zs.shape + eye.shape),
                                  singular.reshape(zs.shape))
    return out.reshape(zs.shape + eye.shape)


def extract_generator_auto(gamma, f, z):
    """extract_generator with the halving-t0 retry policy: one call over
    every point of z at t0 = 0.1, then one call over the points still
    singular at each halving of t0, six tries in all (a scalar z is retried
    as given).  After the sixth, VNotInvertibleError's ``partial`` holds B
    at the points found and ``singular`` marks the others."""
    zs, t0 = np.asarray(z, dtype=complex), 0.1
    try:
        return extract_generator(gamma, f, z, t0)
    except VNotInvertibleError as exc:
        out, todo, last = exc.partial, exc.singular, exc
    for _ in range(5):
        t0 /= 2.0
        try:
            out[todo] = extract_generator(gamma, f, z if zs.ndim == 0 else zs[todo], t0)
            return out
        except VNotInvertibleError as exc:
            out[todo], last = exc.partial, exc
            todo[todo] = exc.singular
    raise VNotInvertibleError(str(last), out, todo)


@dataclass
class GrowthReport:
    """Exponential-growth check on an invariant disk.

    ``k_mu`` is the largest logarithmic norm of B over 256 samples of the
    disk boundary.  The supremum lies on the boundary (subharmonicity), but
    the samples can fall short of it, so exp(k_mu * t) is a sampled
    estimate of the bound e^{Kt}, not a certificate; it is checked against
    sampled cocycle norms.
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
    trajectories, flowed at tol 1e-10 (NotInvariantError when one leaves the
    disk by more than 1e-7), takes k_mu = the largest log_norm(B) over 256
    points of the boundary circle (a sample, which can fall below the
    supremum), and records any excess of sampled ||Gamma_t(z)|| over
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
    drift = np.max(np.abs(model.flow(t_values, sample_ring, tol=1e-10) - z0), axis=1) - r
    for t, d in zip(t_values, drift):
        if d > 1e-7:
            raise NotInvariantError(f"trajectory left the disk by {d:.2e} at t = {t}")

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


def boundedness_classify(
    gamma,
    t_values: Sequence[float],
    z_points: Sequence[complex],
) -> list:
    """Sampled sup-norms: rows (t, max over ``z_points`` of ||Gamma_t(z)||),
    from one call of the oracle ``gamma`` (see ``gamma_grid``).

    The points may be a boundary circle (the sup over the disk, by the
    maximum principle) or trajectory samples.  The rows carry no label: a
    finite sample proves no growth class.  An empty time or point list is
    refused (ValueError) before the oracle is called.
    """
    ts, zs = [float(t) for t in t_values], list(z_points)
    if not ts or not zs:
        raise ValueError("boundedness_classify needs at least one time and one point")
    sups = operator_norm(gamma_grid(gamma, ts, zs)).max(axis=1)
    return list(zip(ts, sups.tolist()))
