"""Linearization of matrix-valued semicocycles.

A semicocycle with generator B over a semigroup with interior fixed point
z0 is *linearizable* when Gamma_t(z) = M(F_t z)^{-1} exp(t B0) M(z) for some
holomorphic invertible M with M(z0) = I and B0 = B(z0).  Conjugating with
the Koenigs coordinate w = h(z) turns this into a coefficient recursion

    k lam m_k - (m_k B0 - B0 m_k) = sum_{l<k} m_l b_{k-l},      m_0 = I,

where b(w) = B(h^{-1}(w)).  The recursion is solvable for every k iff no
positive integer multiple of lam lies in the spectrum of the commutator map
ad_B0; orders where that fails are *resonant* and may carry genuine
obstructions.  This module implements the spectral condition checks, the
recursion with obstruction/resonance handling, a convergence-radius
estimate, reconstruction validation against the evolution solver, the
integral linearizers M = exp(integral) of the commutative (scalar) case,
integrated as ODEs, and a sharpness construction that turns any resonant B0
into a non-linearizable generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import (
    RESONANCE_RTOL,
    _cutoff,
    _resolvent,
    ad_matrix,
    as_matrix,
    as_pairs,
    eigenvalues,
    mat_exp,
    mat_inv,
    operator_norm,
    sylvester_resolve,
    unvec,
)
from .cocycle import CocycleGenerator, _generator_batch, _generator_dim, evolve_grid
from .dynamics import SemigroupModel, _disk_guard
from .errors import (
    NoInteriorFixedPointError,
    NotAttractingError,
    NotResonantError,
    OutOfDomainError,
    OutsideConvergenceRegionError,
    PoleOnPathError,
    TailNotConvergingError,
)
from .integrate import integrate
from .series import MatrixSeries, compose

#: scaled singular-value band that is solved but flagged as ill-conditioned
NEAR_RESONANCE_RTOL = 1e-3


@dataclass
class ConditionReport:
    """Spectral solvability check for the linearization recursion.

    ``violated_k`` lists the orders k <= k_bound at which k*lam lies in the
    spectrum of ad_B0 (rank route: smallest singular value of
    k*lam - ad_matrix below the scaled tolerance).  The eigenvalue route via
    the pairwise-difference set of the spectrum of B0 is kept alongside;
    in finite dimensions the two must agree.
    """

    lam: complex
    spectrum_b0: np.ndarray
    difference_set: np.ndarray
    violated_k: list
    k_bound: int
    rank_route_agrees: bool
    near_resonant_k: list
    smallest_singular_values: list

    @property
    def condition_holds(self) -> bool:
        return not self.violated_k

    def as_dict(self) -> dict:
        return {
            "lambda": as_pairs(self.lam),
            "spectrum_b0": as_pairs(self.spectrum_b0),
            "difference_set": as_pairs(self.difference_set),
            "violated_k": list(self.violated_k),
            "k_bound": self.k_bound,
            "rank_route_agrees": self.rank_route_agrees,
            "near_resonant_k": list(self.near_resonant_k),
            "condition_holds": self.condition_holds,
        }


def condition_check(
    b0,
    lam: complex,
    *,
    resonance_rtol: float = RESONANCE_RTOL,
    ad: Optional[np.ndarray] = None, ad_norm: Optional[float] = None,
) -> ConditionReport:
    """Test whether any k*lam (k = 1 ... k_bound) is resonant for ad_B0.

    k_bound is the larger of ceil(||ad_B0|| / |lam|), past which |k lam|
    exceeds the spectral radius of ad_B0, and the last order whose floor
    |k lam| - ||ad_B0|| on sigma_min does not clear ``_cutoff``, which is
    floor(||ad_B0|| (1 + rtol) / (|lam| (1 - rtol))).  ``_cutoff`` refuses a
    ``resonance_rtol`` outside [0, 1) before any use.  Orders 1 ... k_bound
    take one values-only batched SVD; ``ad`` and ``ad_norm`` may be passed in.
    """
    lam = complex(lam)
    if lam.real <= 0:
        raise NotAttractingError("condition_check requires Re(lam) > 0")
    b = as_matrix(b0)
    spectrum = eigenvalues(b)
    diffs = (spectrum[:, None] - spectrum[None, :]).ravel()
    ad = ad_matrix(b) if ad is None else ad
    ad_norm = float(np.linalg.norm(ad, 2)) if ad_norm is None else ad_norm
    # the floor crosses the affine cutoff at the last open order, checked one order either side
    c0, c1 = _cutoff(np.arange(2), lam, ad_norm, resonance_rtol)[1]
    last = math.floor((ad_norm + c0) / (abs(lam) - (c1 - c0)))
    edge = np.arange(max(last - 1, 0), last + 2)
    left_open = np.abs(edge * lam) - ad_norm <= _cutoff(edge, lam, ad_norm, resonance_rtol)[1]
    k_bound = max(math.ceil(ad_norm / abs(lam)), int(edge[left_open].max()))
    orders = np.arange(1, k_bound + 1)
    res = _resolvent(orders, lam, ad, ad_norm, resonance_rtol, vectors=False)
    sigma_mins = res.sv[:, -1]
    hit_eig = np.min(np.abs(orders[:, None] * lam - diffs), axis=1) <= res.cutoff
    near = ~res.resonant & (sigma_mins <= NEAR_RESONANCE_RTOL * res.scale)
    return ConditionReport(
        lam=lam,
        spectrum_b0=spectrum,
        difference_set=diffs,
        violated_k=orders[res.resonant].tolist(),
        k_bound=k_bound,
        rank_route_agrees=bool(np.array_equal(hit_eig, res.resonant)),
        near_resonant_k=orders[near].tolist(),
        smallest_singular_values=sigma_mins.tolist(),
    )


def conjugated_generator(model: SemigroupModel, B, order: int) -> MatrixSeries:
    """Series of b(w) = B(h^{-1}(w)) about w = 0; b_0 equals B(z0)."""
    if not model.is_interior:
        raise NoInteriorFixedPointError("conjugation requires an interior fixed point")
    if order > model.order:
        raise ValueError(
            f"model series order {model.order} is below the requested {order}"
        )
    outer = B.taylor(model.z0, order)
    return compose(outer, model.koenigs_inv.truncate(order))


@dataclass
class LinearizationOutcome:
    """Result of the coefficient recursion.

    status: "linearizable", "resonant_solvable", "obstructed", "coboundary".
    ``m`` holds the transfer-map coefficients in the Koenigs coordinate
    (m_0 = I; truncated before the failing order when obstructed).
    ``radius_estimate`` is the certified lower bound r / (C1 C2 + 1) on the
    convergence radius; it is 0 when no certificate applies (resonant or
    obstructed chains).
    """

    status: str
    obstructed_at: Optional[int]
    b0: np.ndarray
    m: MatrixSeries
    radius_estimate: float
    diagnostics: dict
    violated_k: list
    condition: ConditionReport

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "obstructed_at": self.obstructed_at,
            "b0": as_pairs(self.b0),
            "m_coefficients": as_pairs(self.m.coeffs),
            "radius_estimate": self.radius_estimate,
            "diagnostics": self.diagnostics,
            "violated_k": list(self.violated_k),
        }


def _geometric_fit(norms: Sequence[float]) -> tuple[float, float]:
    """(C2, r) with ||b_k|| <= C2 / r^k for all supplied k >= 1.

    Least-squares fit on the nonzero norms, then C2 inflated so the bound
    actually covers every point (the certificate below needs a true bound,
    not a regression line).
    """
    ks = [k for k, v in enumerate(norms) if k >= 1 and v > 1e-300]
    if not ks:
        return 0.0, math.inf
    if len(ks) == 1:
        r = 1.0
    else:
        xs = np.asarray(ks, dtype=float)
        ys = np.log([norms[k] for k in ks])
        design = np.stack([np.ones_like(xs), xs], axis=1)
        coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
        r = float(np.exp(-coef[1]))
        if not (r > 0 and math.isfinite(r)):
            r = 1.0
    c2 = max(norms[k] * r**k for k in ks)
    return c2, r


def linearize(
    model: SemigroupModel,
    B,
    order: int = 24,
    *,
    sylvester_tol: float = 1e-10,
    resonance_rtol: float = RESONANCE_RTOL,
) -> LinearizationOutcome:
    """Run the coefficient recursion for the transfer map m(w).

    Halts at the first genuinely obstructed order; passes through resonant
    orders whose right-hand side stays in range using the minimum-norm
    solution (reported without a convergence certificate).  ad_B0 and its
    norm are computed once.  Each order is one ``sylvester_resolve`` call,
    given a lower bound on sigma_min(k lam - ad_B0) where one is at hand:
    up to k_bound ``condition_check``'s batched sigma_min, so only the orders
    in ``violated_k`` take a full SVD; beyond it |k lam| - ||ad_B0|| once
    that cannot raise C1 = max 1 / sigma_min.  One batch of ||b_k|| serves
    the fit of C2 and r and the "coboundary" test ||B0|| <= 1e-10.
    """
    if not model.is_interior:
        raise NoInteriorFixedPointError("series linearization requires an interior fixed point")
    lam = model.rate
    if lam.real <= 0:
        raise NotAttractingError("series linearization requires Re(-f'(z0)) > 0")

    b = conjugated_generator(model, B, order)
    b0 = b.coeffs[0]
    n = b.dim
    ad = ad_matrix(b0)
    ad_norm = float(np.linalg.norm(ad, 2))
    cond = condition_check(b0, lam, resonance_rtol=resonance_rtol, ad=ad, ad_norm=ad_norm)

    m_coeffs = np.zeros((order + 1, n, n), dtype=complex)
    m_coeffs[0] = np.eye(n, dtype=complex)
    resonant_passed = False
    obstructed_at: Optional[int] = None
    c1 = 0.0
    for k in range(1, order + 1):
        rhs = np.matmul(m_coeffs[:k], b.coeffs[k:0:-1]).sum(axis=0)
        # up to k_bound the batch's sigma_min; beyond it the floor, positive
        # there, once 1 / floor cannot raise C1
        floor = abs(k * lam) - ad_norm
        sigma_min = None
        if k <= cond.k_bound:
            sigma_min = cond.smallest_singular_values[k - 1]
        elif 1.0 / floor <= c1:
            sigma_min = floor
        out = sylvester_resolve(
            k, lam, b0, rhs, tol=sylvester_tol, resonance_rtol=resonance_rtol, ad=ad,
            ad_norm=ad_norm, sigma_min=sigma_min,
        )
        if out.kind == "obstructed":
            obstructed_at = k
            m_coeffs = m_coeffs[:k]
            break
        if out.kind == "resonant_solvable":
            resonant_passed = True
        else:
            c1 = max(c1, 1.0 / out.smallest_singular_value)
        m_coeffs[k] = out.solution

    b_norms = operator_norm(b.coeffs).tolist()
    if obstructed_at is not None:
        status = "obstructed"
    elif resonant_passed:
        status = "resonant_solvable"
    elif b_norms[0] <= 1e-10:
        status = "coboundary"
    else:
        status = "linearizable"

    if resonant_passed:
        c1 = math.inf
    c2, r = _geometric_fit(b_norms)
    c3 = 0.0 if c2 == 0.0 else c1 * c2
    if status in ("linearizable", "coboundary"):
        radius = math.inf if c2 == 0.0 else r / (c3 + 1.0)
    else:
        radius = 0.0

    m_series = MatrixSeries(0.0, m_coeffs)
    tail = operator_norm(m_coeffs[-1]) if m_coeffs.shape[0] else 0.0
    if radius == math.inf or tail == 0.0:
        tail_ratio = 0.0
    else:
        tail_ratio = tail * radius ** (m_coeffs.shape[0] - 1)
    diagnostics = {
        "C1": c1,
        "C2": c2,
        "C3": c3,
        "r": r,
        "k_bound": cond.k_bound,
        "tail_ratio": tail_ratio,
        "near_resonant_k": list(cond.near_resonant_k),
    }
    return LinearizationOutcome(
        status=status,
        obstructed_at=obstructed_at,
        b0=b0,
        m=m_series,
        radius_estimate=radius,
        diagnostics=diagnostics,
        violated_k=list(cond.violated_k),
        condition=cond,
    )


def reconstruct_error(
    model: SemigroupModel,
    B,
    outcome: LinearizationOutcome,
    samples: Sequence[tuple],
    *,
    guard_radius: Optional[float] = None,
) -> float:
    """Max over samples (t, z) of ||Gamma_t(z) - M(F_t z)^{-1} e^{t B0} M(z)||.

    Gamma comes from one ``evolve_grid`` call over the distinct times and
    points (independent of the series route being validated), made once
    every sample satisfies |h(z)|, |e^{-lam t} h(z)| <= 0.8 * radius so the
    truncated series is trusted.  An empty ``samples`` raises ValueError.
    """
    if outcome.status == "obstructed":
        raise ValueError("obstructed outcomes cannot be reconstructed")
    if not samples:
        raise ValueError("reconstruct_error needs at least one sample")
    radius = outcome.radius_estimate if guard_radius is None else guard_radius
    lam = model.rate

    checked = []
    for t, z in samples:
        t, z = float(t), complex(z)
        hz = model.koenigs.evaluate(z)
        wt = np.exp(-lam * t) * hz
        if abs(z - model.z0) > model.koenigs_radius or max(abs(hz), abs(wt)) > 0.8 * radius:
            raise OutsideConvergenceRegionError(
                f"sample (t={t}, z={z}) leaves the certified region"
            )
        checked.append((t, z, hz, wt))
    ts = sorted({t for t, _, _, _ in checked})
    zs = list(dict.fromkeys(z for _, z, _, _ in checked))
    gammas = evolve_grid(model, B, ts, zs)
    exp_tb0 = {t: mat_exp(t * outcome.b0) for t in ts}
    err = 0.0
    for t, z, hz, wt in checked:
        recon = mat_inv(outcome.m.evaluate(wt)) @ exp_tb0[t] @ outcome.m.evaluate(hz)
        err = max(err, operator_norm(gammas[ts.index(t), zs.index(z)] - recon))
    return err


def commutative_linearize_interior(
    model: SemigroupModel,
    B,
    z: complex,
) -> complex:
    """Scalar transfer map M(z) = exp of the improper integral of
    B(F_t z) - B0 over t in [0, infinity), to an absolute error of about 1e-9.

    ``integrate`` carries (F_t z, the integral up to t) in unit time chunks,
    up to t = 500, at a per-step tolerance of 1e-10 relative to 1 + |y|.  It
    stops after a chunk that adds at most 2.5e-10 once the tail after T,
    bounded by |B(F_T z) - B0| / alpha with
    alpha = Re(lam) (1 - |z|) / (1 + |z|), is at most 5e-10.
    """
    if _generator_dim(B, complex(z)) != 1:
        raise ValueError("the closed-form interior linearizer is scalar-only")
    if not model.is_interior:
        raise TailNotConvergingError("interior fixed point required")
    lam = model.rate
    if lam.real <= 0:
        raise TailNotConvergingError("Re(-f'(z0)) <= 0: no decay toward z0")
    z = complex(z)
    if abs(z) >= 1.0:
        raise OutOfDomainError("flow point outside the open unit disk")
    if z == model.z0:
        return 1.0 + 0.0j
    b0 = _generator_batch(B, np.array([model.z0]), 1)[0, 0, 0]
    alpha = lam.real * (1.0 - abs(z)) / (1.0 + abs(z))

    def rhs(_t, y):  # (f(u), B(u) - B0) for y = (u, integral)
        return np.concatenate([model.f(y[:1]), _generator_batch(B, y[:1], 1)[:, 0, 0] - b0])

    y = np.array([z, 0.0], dtype=complex)
    for t_lo in range(500):
        before = y[1]
        y = integrate(rhs, (t_lo, t_lo + 1.0), y, tol=1e-10, guard=_disk_guard(1))[-1]
        if abs(y[1] - before) <= 2.5e-10 and abs(rhs(0.0, y)[1]) / alpha <= 5e-10:
            return complex(np.exp(y[1]))
    raise TailNotConvergingError("integral tail did not fall below tolerance")


def commutative_linearize_nofix(
    f,
    B,
    z: complex,
    *,
    tol: float = 1e-10,
) -> complex:
    """Scalar transfer map M(z) = exp(-integral of B/f along [0, z]) for
    semigroups without an interior fixed point.

    The cocycle is then the coboundary Gamma_t(z) = M(F_t z)^{-1} M(z).
    One ``integrate`` call carries d/ds log M(sz) = -z B(sz) / f(sz) over
    [0, 1]; ``tol`` is its per-step tolerance, relative to 1 + |log M|, not
    an absolute quadrature error.  f must not vanish at 65 probes of [0, z].
    """
    z = complex(z)
    if _generator_dim(B, z / 2 if z else 0.0) != 1:
        raise ValueError("the closed-form linearizer is scalar-only")
    if np.min(np.abs(f(np.linspace(0.0, 1.0, 65) * z))) <= 1e-8:
        raise PoleOnPathError("generator vanishes on the integration segment")

    def rhs(s, _y):
        w = np.array([s * z])
        return _generator_batch(B, w, 1)[:, 0, 0] / f(w) * z

    integral = integrate(rhs, (0.0, 1.0), np.zeros(1, dtype=complex), tol=tol)[-1, 0]
    return complex(np.exp(-integral))


def sharpness_witness(
    b0,
    lam: complex,
    k: int,
) -> CocycleGenerator:
    """Generator B(z) = B0 + z^k A whose recursion is obstructed at order k.

    ``A`` is a left singular vector (reshaped) of k*lam - ad_matrix(B0) for
    a zero singular value, hence orthogonal to, and outside of, the range.
    Intended for the linear semigroup with rate lam (identity Koenigs map),
    where the conjugated series is exactly B0 + A w^k.  Raises
    NotResonantError when order k is not resonant.
    """
    if k < 1:
        raise ValueError("order k must be a positive integer")
    b = as_matrix(b0)
    ad = ad_matrix(b)
    res = _resolvent(k, lam, ad, float(np.linalg.norm(ad, 2)), RESONANCE_RTOL)
    if not res.resonant:
        raise NotResonantError(f"k*lam = {k * complex(lam)} is not in the spectrum of ad_B0")
    n = b.shape[0]
    a = unvec(res.u[:, -1], n)
    num = np.zeros((k + 1, n, n), dtype=complex)
    num[0] = b
    num[k] = a
    return CocycleGenerator(num)
