"""One-parameter semigroups on the unit disk built from rational generators.

A model bundles the generator f, its interior fixed point z0, the rate
lambda = -f'(z0), and the Koenigs series h solving the Schroeder equation
h(F_t(z)) = exp(-lambda t) h(z) with h(z0) = 0, h'(z0) = 1.  Flow evaluation
prefers the Koenigs route and falls back to direct integration of
du/dt = f(u) outside the validated series region.
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

#: safety factor applied to the ratio-test estimate of a series radius
RADIUS_SAFETY = 0.8

#: how close to the unit circle a fixed point (or a generator's pole) stops
#: counting as interior
BOUNDARY_MARGIN = 1e-9


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
        poles = np.roots(self.den[::-1])
        inside = poles[np.abs(poles) < 1.0 - BOUNDARY_MARGIN]
        if inside.size:
            raise ValueError(f"{self._what} has a pole inside the unit disk at {inside[0]:.6g}")

    def __call__(self, z):
        return horner(self.num, z) / horner(self.den, z)[self._den_axes]

    def taylor(self, center: complex, order: int):
        """Taylor series about ``center``, scalar or matrix like ``num`` (the
        denominator must not vanish there)."""
        return _rational_taylor(self.num, self.den, center, order)


class RationalMap(_Rational):
    """Scalar rational function of z, the semigroup generator f."""

    _what = "semigroup generator f"
    _den_axes = ...

    def __post_init__(self):
        self.num = np.atleast_1d(np.asarray(self.num, dtype=complex))
        super().__post_init__()

    def derivative(self) -> "RationalMap":
        def dpoly(c):
            if c.shape[0] == 1:
                return np.zeros(1, dtype=complex)
            return c[1:] * np.arange(1, c.shape[0])

        dn = np.convolve(dpoly(self.num), self.den)
        nd = np.convolve(self.num, dpoly(self.den))
        width = max(dn.shape[0], nd.shape[0])
        dn = np.pad(dn, (0, width - dn.shape[0]))
        nd = np.pad(nd, (0, width - nd.shape[0]))
        return RationalMap(dn - nd, np.convolve(self.den, self.den))


def _ratio_radius(coeffs: np.ndarray) -> float:
    """RADIUS_SAFETY / limsup |c_k|^(1/k), estimated from the high-order
    coefficients; infinite when they all vanish."""
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
    """Semigroup data around an interior fixed point (or a boundary model
    with ``z0 is None``, for which only the ODE flow is available)."""

    f: RationalMap
    z0: Optional[complex]
    rate: Optional[complex]
    koenigs: Optional[ScalarSeries]
    koenigs_inv: Optional[ScalarSeries]
    koenigs_radius: float
    koenigs_inv_radius: float
    order: int

    @property
    def is_interior(self) -> bool:
        return self.z0 is not None

    def flow(self, t: float, z):
        """F_t(z); Koenigs route inside the validated region, ODE fallback.

        ``z`` may be a complex scalar or an ndarray of points; ``t`` must be
        finite and nonnegative, else ValueError.
        """
        if not (math.isfinite(t) and t >= 0):
            raise ValueError(f"flow requires a finite t >= 0, got {t!r}")
        zs = np.asarray(z, dtype=complex)
        if np.any(np.abs(zs) >= 1.0):
            raise OutOfDomainError("flow point outside the open unit disk")
        if t == 0:
            return zs if zs.shape else complex(zs)
        if self.is_interior and np.all(np.abs(zs - self.z0) <= self.koenigs_radius):
            hz = np.asarray(self.koenigs.evaluate(zs))
            if np.all(np.abs(hz) <= self.koenigs_inv_radius):
                out = self.koenigs_inv.evaluate(np.exp(-self.rate * t) * hz)
                if np.any(np.abs(np.asarray(out)) >= 1.0):
                    raise DomainEscapeError("flow left the unit disk")
                return out if zs.shape else complex(out)
        return flow_ode(self.f, t, z)


def _disk_guard(m: Optional[int] = None):
    """Integrator guard: DomainEscapeError once one of the first ``m`` state
    entries (all by default) reaches the unit circle."""

    def guard(y):
        if np.any(np.abs(y[:m]) >= 1.0):
            raise DomainEscapeError("trajectory reached the unit circle")

    return guard


def flow_ode(f: RationalMap, t: float, z, *, tol: float = 1e-12):
    """Direct integration of du/dt = f(u), u(0) = z.

    Raises DomainEscapeError if the trajectory reaches the unit circle,
    which signals that ``f`` is not a generator of disk self-maps.
    """
    if t < 0:
        raise ValueError("flow requires t >= 0")
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(np.abs(zs) >= 1.0):
        raise OutOfDomainError("flow point outside the open unit disk")

    out = _int.integrate(lambda _t, y: f(y), (0.0, float(t)), zs, tol=tol, guard=_disk_guard())[-1]
    out = out.reshape(np.shape(z))
    return out if np.shape(z) else complex(out)


def build_model(f: RationalMap, hint: complex = 0.0, order: int = 24) -> SemigroupModel:
    """Locate the interior fixed point, compute the rate, and assemble the
    Koenigs series and its reversion.

    Raises NoInteriorFixedPointError when Newton iteration fails or lands
    within BOUNDARY_MARGIN of the unit circle, and ZeroRateError when
    |f'(z0)| is numerically zero.
    """
    df = f.derivative()
    z0 = complex(hint)
    converged = False
    for _ in range(100):
        fz = f(z0)
        if abs(fz) < 1e-14:
            converged = True
            break
        dfz = df(z0)
        if abs(dfz) < 1e-300:
            break
        z0 = z0 - fz / dfz
        if not (math.isfinite(z0.real) and math.isfinite(z0.imag)):
            break
    if not converged or abs(f(z0)) > 1e-12:
        raise NoInteriorFixedPointError("Newton iteration did not locate a fixed point")
    if abs(z0) >= 1.0 - BOUNDARY_MARGIN:
        raise NoInteriorFixedPointError(f"fixed point {z0} is not interior")

    lam = -df(z0)
    if abs(lam) < 1e-12:
        raise ZeroRateError("rate -f'(z0) is numerically zero")

    f_c = f.taylor(z0, order + 1).coeffs
    h = np.zeros(order + 1, dtype=complex)
    h[1] = 1.0
    # Schroeder recursion from h' f = -lambda h
    for k in range(2, order + 1):
        h[k] = sum(j * h[j] * f_c[k + 1 - j] for j in range(1, k)) / (lam * (k - 1))
    koenigs = ScalarSeries(z0, h)
    koenigs_inv = revert(koenigs)
    return SemigroupModel(
        f=f,
        z0=z0,
        rate=lam,
        koenigs=koenigs,
        koenigs_inv=koenigs_inv,
        koenigs_radius=_ratio_radius(h),
        koenigs_inv_radius=_ratio_radius(koenigs_inv.coeffs),
        order=order,
    )


def build_boundary_model(f: RationalMap) -> SemigroupModel:
    """Model for a semigroup without an interior fixed point.

    Only the ODE flow is available; the series linearizer is disabled.
    """
    return SemigroupModel(
        f=f,
        z0=None,
        rate=None,
        koenigs=None,
        koenigs_inv=None,
        koenigs_radius=0.0,
        koenigs_inv_radius=0.0,
        order=0,
    )
