"""One-parameter semigroups on the unit disk built from rational generators.

A model bundles the generator f, its interior fixed point z0 (the one zero
of f inside the disk, or None when f has none: a boundary model), the rate
lambda = -f'(z0), and the series of h^{-1}, the inverse of the Koenigs map h
that solves the Schroeder equation h(F_t(z)) = exp(-lambda t) h(z) with
h(z0) = 0, h'(z0) = 1, built from f.  The flow F_t is always the direct
integration of du/dt = f(u); the series serves the linearization alone, so a
model builds it on its first read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import integrate as _int
from .errors import (
    DomainEscapeError,
    OutOfDomainError,
    ZeroRateError,
)
from .series import ScalarSeries, _rational_taylor, _shift_poly, horner

#: how close to the unit circle a fixed point (or a generator's pole) stops
#: counting as interior
BOUNDARY_MARGIN = 1e-9


def _interior_roots(coeffs: np.ndarray) -> np.ndarray:
    """Distinct roots of the polynomial with ascending scalar ``coeffs`` that
    lie inside the disk |r| < 1 - BOUNDARY_MARGIN (none for the zero
    polynomial)."""
    roots = np.roots(coeffs[::-1])
    return np.unique(roots[np.abs(roots) < 1.0 - BOUNDARY_MARGIN])


def _require_disk(z) -> None:
    """OutOfDomainError unless every point of ``z`` lies in the open unit disk."""
    if not (np.abs(z) < 1.0).all():
        raise OutOfDomainError("point outside the open unit disk")


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
        # a polynomial map skips the division by 1, which would only turn a
        # -0.0 real part into +0.0
        self._unit_den = self.den.shape[0] == 1 and bool(self.den[0] == 1)

    def __call__(self, z):
        if self.den.shape[0] > 1:
            return horner(self.num, z) / horner(self.den, z)[self._den_axes]
        value = horner(self.num, z)
        return value if self._unit_den else value / self.den[0]

    def taylor(self, center: complex, order: int):
        """Taylor series about ``center``, scalar or matrix like ``num`` (the
        denominator must not vanish there)."""
        return _rational_taylor(self.num, self.den, center, order)


class RationalMap(_Rational):
    """Scalar rational function of z, the semigroup generator f.

    A generator that is not identically zero has at most one zero in the
    disk (Berkson-Porta), so a numerator with more than one distinct root
    inside it is refused with a ValueError.  ``zeros`` keeps the roots found
    here, |z| < 1 - BOUNDARY_MARGIN, for ``build_model`` (0 for f = 0).
    """

    _what = "semigroup generator f"
    _den_axes = ...

    def __post_init__(self):
        self.num = np.atleast_1d(np.asarray(self.num, dtype=complex))
        super().__post_init__()
        self.zeros = _interior_roots(self.num) if np.any(self.num) else np.zeros(1, dtype=complex)
        if self.zeros.size > 1:
            raise ValueError(f"{self._what} has more than one zero inside the unit disk, "
                             f"at {self.zeros[0]:.6g} and {self.zeros[1]:.6g}")


@dataclass
class SemigroupModel:
    """Semigroup data around an interior fixed point, or a boundary model
    with ``z0`` and ``rate`` None, as ``build_model`` decides; both flow by the ODE.

    ``koenigs_inv`` is the one Koenigs series, h^{-1} about w = 0 with
    constant term z0, by its own recursion from f's Taylor coefficients to
    ``order``; it is built on its first read, and None on a boundary model.
    ``reconstruct_error`` gets h(z) from it by Newton steps."""

    f: RationalMap
    z0: Optional[complex]
    rate: Optional[complex]
    order: int

    @functools.cached_property
    def koenigs_inv(self) -> Optional[ScalarSeries]:
        if self.z0 is None:
            return None
        f_c, lam, order = self.f.taylor(self.z0, self.order).coeffs, self.rate, self.order
        # F_t(g(w)) = g(e^{-lambda t} w) at t = 0 gives -lambda w g' = f(g); with
        # u = g - z0, f(z0 + u) = sum_j f_j u^j, row j of pw holds u^j (up to
        # f's last nonzero f_j) and g_k = -sum_{j>1} f_j [u^j]_k / (lambda (k - 1))
        top = np.flatnonzero(f_c)[-1]
        pw = np.zeros((top + 1, order + 1), dtype=complex)
        pw[1, :2] = self.z0, 1.0  # column 0 holds g's constant term and is never read
        for k in range(2, order + 1):
            j = min(k, top) + 1
            pw[2:j, k] = pw[1:j - 1, k - 1:0:-1] @ pw[1, 1:k]
            pw[1, k] = -(f_c[2:j] @ pw[2:j, k]) / (lam * (k - 1))
        return ScalarSeries(0.0, pw[1])

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
    _require_disk(zs)
    out = _int.integrate_at(lambda _t, y: f(y), ts, zs.ravel(), tol=tol, guard=_disk_guard())
    out = out.reshape(ts.shape + zs.shape)
    return out if out.shape else complex(out)


def build_model(f: RationalMap, order: int = 24) -> SemigroupModel:
    """The one place that decides whether f fixes a point z0 in the disk:
    f's zero with |z0| < 1 - BOUNDARY_MARGIN, or else a boundary model.  The
    rate lambda = -f'(z0) is -num'(z0) / den(z0), as num(z0) = 0; the Koenigs
    series h^{-1} waits for its first read.  Raises ValueError for an order below
    1 and ZeroRateError when lambda is numerically zero (f identically zero
    counts as fixing z0 = 0)."""
    if order < 1:
        raise ValueError(f"series order must be at least 1, got {order!r}")
    if not f.zeros.size:
        return SemigroupModel(f=f, z0=None, rate=None, order=order)
    z0 = complex(f.zeros[0])
    # an appended zero leaves the shift bit-identical and gives f = 0 a num'
    lam = -_shift_poly(np.append(f.num, 0.0), z0)[1] / horner(f.den, z0)
    if abs(lam) < 1e-12:
        raise ZeroRateError("rate -f'(z0) is numerically zero")
    return SemigroupModel(f=f, z0=z0, rate=lam, order=order)
