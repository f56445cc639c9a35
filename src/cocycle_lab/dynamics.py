"""One-parameter semigroups on the unit disk built from rational generators.

A model bundles the generator f, its interior fixed point z0 (the one zero
of f inside the disk), the rate lambda = -f'(z0), and the Koenigs series h
solving the Schroeder equation h(F_t(z)) = exp(-lambda t) h(z) with
h(z0) = 0, h'(z0) = 1.  The flow F_t is always the direct integration of
du/dt = f(u); the Koenigs series serve the linearization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import integrate as _int
from .errors import (
    DomainEscapeError,
    NoInteriorFixedPointError,
    OutOfDomainError,
    ZeroRateError,
)
from .series import ScalarSeries, _rational_taylor, horner, revert

#: safety factor applied to the ratio-test estimate of a series radius (read
#: only by ``reconstruct_error``'s sample guard)
RADIUS_SAFETY = 0.8

#: how close to the unit circle a fixed point (or a generator's pole) stops
#: counting as interior
BOUNDARY_MARGIN = 1e-9


def _interior_roots(coeffs: np.ndarray) -> np.ndarray:
    """Distinct roots of the polynomial with ascending scalar ``coeffs`` that
    lie inside the disk |r| < 1 - BOUNDARY_MARGIN (none for the zero
    polynomial)."""
    roots = np.roots(coeffs[::-1])
    return np.unique(roots[np.abs(roots) < 1.0 - BOUNDARY_MARGIN])


@dataclass
class _Rational:
    """Rational map z -> num(z) / den(z) from ascending polynomial
    coefficients, ``num`` scalar or square-matrix and ``den`` scalar.

    The map must be holomorphic in the open unit disk, so a ``den`` that
    vanishes identically or has a root inside the disk is refused with a
    ValueError naming the map by the subclass's ``_what``; roots on the
    unit circle pass.  A subclass shapes ``num``, sets ``_den_axes`` to
    lift den(z) over num's matrix axes, and calls this ``__post_init__``.
    """

    num: np.ndarray
    den: np.ndarray = field(default_factory=lambda: np.array([1.0 + 0.0j]))

    def __post_init__(self):
        if self.num.shape[0] == 0:
            raise ValueError(f"{self._what} has no numerator coefficients")
        self.den = np.atleast_1d(np.asarray(self.den, dtype=complex))
        if not np.any(np.abs(self.den) > 0):
            raise ValueError("denominator is identically zero")
        poles = _interior_roots(self.den)
        if poles.size:
            raise ValueError(f"{self._what} has a pole inside the unit disk at {poles[0]:.6g}")

    def __call__(self, z):
        if self.den.shape[0] > 1:
            return horner(self.num, z) / horner(self.den, z)[self._den_axes]
        value = horner(self.num, z)
        # a polynomial map skips the division by 1, which would only turn a
        # -0.0 real part into +0.0
        return value if self.den[0] == 1 else value / self.den[0]

    def taylor(self, center: complex, order: int):
        """Taylor series about ``center``, scalar or matrix like ``num`` (the
        denominator must not vanish there)."""
        return _rational_taylor(self.num, self.den, center, order)


class RationalMap(_Rational):
    """Scalar rational function of z, the semigroup generator f.

    A generator that is not identically zero has at most one zero in the
    disk (Berkson-Porta), so a numerator with more than one distinct root
    inside it is refused with a ValueError.
    """

    _what = "semigroup generator f"
    _den_axes = ...

    def __post_init__(self):
        self.num = np.atleast_1d(np.asarray(self.num, dtype=complex))
        super().__post_init__()
        zeros = _interior_roots(self.num)
        if zeros.size > 1:
            raise ValueError(f"{self._what} has more than one zero inside the unit disk, "
                             f"at {zeros[0]:.6g} and {zeros[1]:.6g}")


def _ratio_radius(coeffs: np.ndarray) -> float:
    """RADIUS_SAFETY / limsup |c_k|^(1/k), estimated from the high-order
    coefficients; infinite when they all vanish.  An estimate, not a bound:
    it sets ``koenigs_radius``, which only ``reconstruct_error``'s sample
    guard reads."""
    n = coeffs.shape[0] - 1
    lo = max(2, n // 2)
    best = 0.0
    for k in range(lo, n + 1):
        a = abs(coeffs[k])
        if a > 1e-250:
            best = max(best, a ** (1.0 / k))
    if best == 0.0:
        return math.inf
    return RADIUS_SAFETY / best


@dataclass
class SemigroupModel:
    """Semigroup data around an interior fixed point, or a boundary model
    with ``z0 is None`` and no Koenigs data.  Both kinds flow by the ODE.

    ``koenigs_radius`` is the ratio-test estimate of h's radius about z0,
    kept for ``reconstruct_error``'s sample guard alone."""

    f: RationalMap
    z0: Optional[complex]
    rate: Optional[complex]
    koenigs: Optional[ScalarSeries]
    koenigs_inv: Optional[ScalarSeries]
    koenigs_radius: float
    order: int

    @property
    def is_interior(self) -> bool:
        return self.z0 is not None

    def flow(self, t, z, *, tol: float = 1e-12):
        """F_t(z) on the outer-product grid of the times ``t`` (finite and
        nonnegative) and the points ``z``: shape t.shape + z.shape, a complex
        for two numbers, and exactly z at t = 0.  One ``flow_ode``
        integration at local error ``tol`` covers the grid."""
        return flow_ode(self.f, t, z, tol=tol)


def _disk_guard(m: Optional[int] = None):
    """Integrator guard: DomainEscapeError once one of the first ``m`` state
    entries (all by default) reaches the unit circle."""

    def guard(y):
        if np.any(np.abs(y[:m]) >= 1.0):
            raise DomainEscapeError("trajectory reached the unit circle")

    return guard


def flow_ode(f: RationalMap, t, z, *, tol: float = 1e-12):
    """Direct integration of du/dt = f(u), u(0) = z, on the (t, z) grid of
    ``SemigroupModel.flow`` in one ``integrate_at`` call.  Raises
    DomainEscapeError if the trajectory reaches the unit circle, which
    signals that ``f`` is not a generator of disk self-maps."""
    ts, zs = np.asarray(t, dtype=float), np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ValueError(f"flow requires a finite t >= 0, got {t!r}")
    if np.any(np.abs(zs) >= 1.0):
        raise OutOfDomainError("flow point outside the open unit disk")
    out = _int.integrate_at(lambda _t, y: f(y), ts, zs.ravel(), tol=tol, guard=_disk_guard())
    out = out.reshape(ts.shape + zs.shape)
    return out if out.shape else complex(out)


def build_model(f: RationalMap, order: int = 24) -> SemigroupModel:
    """Take the interior fixed point z0 as the zero of f's numerator inside
    the disk, the rate lambda = -f'(z0) from f's Taylor series there, and
    assemble the Koenigs series and its reversion.

    Raises NoInteriorFixedPointError when f has no zero with
    |z0| < 1 - BOUNDARY_MARGIN, and ZeroRateError when lambda is
    numerically zero (f identically zero counts as fixing z0 = 0).
    """
    zeros = _interior_roots(f.num) if np.any(f.num) else np.zeros(1)
    if not zeros.size:
        raise NoInteriorFixedPointError("f has no zero inside the unit disk")
    z0 = complex(zeros[0])
    f_c = f.taylor(z0, order + 1).coeffs
    lam = -f_c[1]
    if abs(lam) < 1e-12:
        raise ZeroRateError("rate -f'(z0) is numerically zero")

    h = np.zeros(order + 1, dtype=complex)
    h[1] = 1.0
    # Schroeder recursion from h' f = -lambda h:
    # h_k = sum_{0<j<k} j h_j f_{k+1-j} / (lambda (k - 1))
    js = np.arange(order + 1)
    for k in range(2, order + 1):
        h[k] = (js[1:k] * h[1:k]) @ f_c[k:1:-1] / (lam * (k - 1))
    koenigs = ScalarSeries(z0, h)
    koenigs_inv = revert(koenigs)
    return SemigroupModel(
        f=f,
        z0=z0,
        rate=lam,
        koenigs=koenigs,
        koenigs_inv=koenigs_inv,
        koenigs_radius=_ratio_radius(h),
        order=order,
    )


def build_boundary_model(f: RationalMap) -> SemigroupModel:
    """Model for a semigroup without an interior fixed point.

    It has no Koenigs data, so the series linearizer is disabled.
    """
    return SemigroupModel(
        f=f,
        z0=None,
        rate=None,
        koenigs=None,
        koenigs_inv=None,
        koenigs_radius=0.0,
        order=0,
    )
