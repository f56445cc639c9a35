"""Linearization of matrix-valued semicocycles.

A semicocycle with generator B over a semigroup with interior fixed point
z0 is *linearizable* when Gamma_t(z) = M(F_t z)^{-1} exp(t B0) M(z) for some
holomorphic invertible M with M(z0) = I and B0 = B(z0).  Conjugating with
the Koenigs coordinate w = h(z) turns this into a coefficient recursion

    k lam m_k - (m_k B0 - B0 m_k) = sum_{l<k} m_l b_{k-l},      m_0 = I,

where b(w) = B(h^{-1}(w)).  The recursion is solvable for every k iff no
positive integer multiple of lam lies in the spectrum of the commutator map
ad_B0; orders where that fails are *resonant* and may carry genuine
obstructions.  This module implements the spectral condition check, the
recursion with obstruction/resonance handling, a convergence-radius
estimate, reconstruction validation against the evolution solver, the
integral linearizers M = exp(integral) of the commutative (scalar) case,
each one ODE solve along a segment, and a sharpness construction that turns
any resonant B0 into a non-linearizable generator.
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
    _sweeper,
    ad_matrix,
    as_matrix,
    as_pairs,
    mat_exp,
    mat_inv,
    operator_norm,
    schur,
    sylvester_resolve,
    unvec,
)
from .cocycle import _CAUCHY_THETAS, CocycleGenerator, _generator_batch, _generator_dim, evolve_grid
from .dynamics import SemigroupModel
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
    spectrum of ad_B0: the smallest singular value of k*lam - ad_matrix is
    at most ``_cutoff``.  This is the one test of the condition; it asks
    nothing of sigma(B0) - sigma(B0), which in a Banach algebra only
    contains sigma(ad_B0).  ``spectrum_b0`` is reported alongside.
    """

    lam: complex
    spectrum_b0: np.ndarray
    violated_k: list
    k_bound: int
    near_resonant_k: list
    smallest_singular_values: list

    @property
    def condition_holds(self) -> bool:
        return not self.violated_k

    def as_dict(self) -> dict:
        return {
            "lambda": as_pairs(self.lam),
            "spectrum_b0": as_pairs(self.spectrum_b0),
            "violated_k": list(self.violated_k),
            "k_bound": self.k_bound,
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
    near = ~res.resonant & (sigma_mins <= NEAR_RESONANCE_RTOL * res.scale)
    return ConditionReport(
        lam=lam,
        spectrum_b0=np.linalg.eigvals(b),
        violated_k=orders[res.resonant].tolist(),
        k_bound=k_bound,
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
    ``radius_estimate`` is r / (C1 C2 + 1) from ``_certificate``, certified
    for the computed orders k <= N with the truncated h^{-1} for h^{-1}; it is
    0 when no certificate applies (resonant or obstructed chains).
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


def _certificate(c1: float, norms: np.ndarray) -> tuple[float, float]:
    """(C2, r) with ||b_k|| <= C2 / r^k for every supplied k >= 1.

    Any r > 0 gives such a pair with C2(r) = max_k ||b_k|| r^k, taken in
    logarithms; r is the best, for r / (C1 C2(r) + 1), of the stationary
    points r_k = (C1 ||b_k|| (k - 1))^(-1/k), k >= 2.  r = 1 when C1 is not
    in (0, inf) or every ||b_k|| with k >= 2 is 0; (C2, r) = (0, inf) when
    every ||b_k|| with k >= 1 is.
    """
    ks = np.flatnonzero(norms[1:]) + 1
    if not ks.size:
        return 0.0, math.inf
    log_b = np.log(norms[ks])
    log_r = np.zeros(1)  # r = 1
    more = ks >= 2
    if 0.0 < c1 < math.inf and more.any():
        log_r = -(math.log(c1) + log_b[more] + np.log(ks[more] - 1.0)) / ks[more]
    log_c2 = np.max(log_b + np.outer(log_r, ks), axis=1)  # C2 at each candidate r
    best = np.argmax(log_r - np.logaddexp(math.log(c1) + log_c2, 0.0)) if log_r.size > 1 else 0
    return math.exp(log_c2[best]), math.exp(log_r[best])


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
    norm are computed once, and so is the Schur form B0 = Q T Q^H: the b_k
    move into its basis in one product, and m back in one at the end.  An
    order in ``violated_k`` is one ``sylvester_resolve`` call, the only full
    SVD of k lam - ad_B0; every other order is one column sweep (``_sweeper``:
    n triangular n x n systems, inverted in one batched call).  C1 =
    max 1 / sigma_min(k lam - ad_B0) takes ``condition_check``'s batched
    sigma_min up to k_bound, and beyond it singular values only where the
    floor |k lam| - ||ad_B0|| could raise C1.  One batch of ||b_k|| serves
    the choice of C2 and r (``_certificate``) and the "coboundary" test
    ||B0|| <= 1e-10.  ``tail_ratio`` is ||m_N|| radius^N.
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

    # the recursion runs in the Schur basis of B0, where m'_0 = I too.  The
    # m'_l sit side by side in one n x (N+1)n array and b'_N ... b'_1 are
    # stacked, so each sum_{l<k} m'_l b'_{k-l} is one matrix product
    q, t = schur(b0)
    qh = q.conj().T
    b_stack = (qh @ b.coeffs[:0:-1] @ q).reshape(-1, n)
    sweep = _sweeper(t)
    m_row = np.zeros((n, (order + 1) * n), dtype=complex)
    m_row[:, :n] = np.eye(n)
    resonant_passed = False
    obstructed_at: Optional[int] = None
    c1 = 0.0
    for k in range(1, order + 1):
        rhs = m_row[:, : k * n] @ b_stack[(order - k) * n :]
        if k not in cond.violated_k:
            # up to k_bound the batch's sigma_min; beyond it the floor
            # |k lam| - ||ad_B0||, positive there, bounds 1 / sigma_min, so
            # sigma_min is taken only where that bound tops C1
            if k <= cond.k_bound:
                c1 = max(c1, 1.0 / cond.smallest_singular_values[k - 1])
            elif 1.0 / (abs(k * lam) - ad_norm) > c1:
                res = _resolvent(k, lam, ad, ad_norm, resonance_rtol, vectors=False)
                c1 = max(c1, 1.0 / float(res.sv[-1]))
            m_row[:, k * n : (k + 1) * n] = sweep(k * lam, rhs)
            continue
        out = sylvester_resolve(
            k, lam, b0, q @ rhs @ qh, tol=sylvester_tol, resonance_rtol=resonance_rtol,
            ad=ad, ad_norm=ad_norm,
        )
        if out.kind == "obstructed":
            obstructed_at = k
            m_row = m_row[:, : k * n]
            break
        if out.kind == "resonant_solvable":
            resonant_passed = True
        else:
            c1 = max(c1, 1.0 / out.smallest_singular_value)
        m_row[:, k * n : (k + 1) * n] = qh @ out.solution @ q
    m_coeffs = q @ m_row.reshape(n, -1, n).swapaxes(0, 1) @ qh
    m_coeffs[0] = np.eye(n)

    b_norms = operator_norm(b.coeffs)
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
    c2, r = _certificate(c1, b_norms)
    c3 = 0.0 if c2 == 0.0 else c1 * c2
    if status in ("linearizable", "coboundary"):
        radius = math.inf if c2 == 0.0 else r / (c3 + 1.0)
    else:
        radius = 0.0

    m_series = MatrixSeries(0.0, m_coeffs)
    tail = operator_norm(m_coeffs[-1])
    last = m_series.order
    if radius == math.inf or tail == 0.0:
        tail_ratio = 0.0
    else:  # ||m_N|| radius^N, at most 1 under the certificate, without forming radius^N
        tail_ratio = (tail ** (1.0 / last) * radius) ** last if last else tail
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

    Gamma comes from one ``evolve_grid`` call over the sample times, as they
    come, and the distinct points, independent of the series being tested.
    That call is made once every sample passes the guard: |z - z0| <=
    ``model.koenigs_radius`` and |h(z)|, |e^{-lam t} h(z)| <= 0.8 * radius.
    ``koenigs_radius`` is a ratio-test estimate, not a bound, so the guard
    does not prove that the truncated h converges at z.  An empty
    ``samples`` raises ValueError.
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
    ts = [t for t, _, _, _ in checked]
    zs, where = np.unique([z for _, z, _, _ in checked], return_inverse=True)
    gammas = evolve_grid(model, B, ts, zs)
    exp_tb0 = {t: mat_exp(t * outcome.b0) for t in ts}
    err = 0.0
    for gamma_t, j, (t, _, hz, wt) in zip(gammas, where, checked):
        recon = mat_inv(outcome.m.evaluate(wt)) @ exp_tb0[t] @ outcome.m.evaluate(hz)
        err = max(err, operator_norm(gamma_t[j] - recon))
    return err


def _segment_transfer(f, B, a: complex, c: complex, z: complex, tol: float, ring=0.0) -> complex:
    """exp(-I), I the integral of g(u) = (B(u) - c) / f(u) du along the
    segment u = a + s (z - a), s in [0, 1], by one ``integrate`` call at
    per-step tolerance ``tol``, relative to 1 + |I|.  A ``ring`` > 0 marks a
    removable singularity of g at a = z0: g(a) is then the mean of g over the
    64 ``_CAUCHY_THETAS`` nodes on the circle of that radius about a, exact by
    the mean-value property up to an error geometric in the node count.
    """
    d = z - a

    def g(u):
        return (_generator_batch(B, u, 1)[:, 0, 0] - c) / f(u)

    g0 = np.mean(g(a + ring * np.exp(1j * _CAUCHY_THETAS)), keepdims=True) if ring else None

    def rhs(s, _y):
        return (g0 if s == 0.0 and ring else g(np.array([a + s * d]))) * d

    integral = integrate(rhs, (0.0, 1.0), np.zeros(1, dtype=complex), tol=tol)[-1, 0]
    return complex(np.exp(-integral))


def commutative_linearize_interior(model: SemigroupModel, B, z: complex) -> complex:
    """Scalar transfer map M(z) = exp(-integral of (B(u) - B0) / f(u) du
    along [z0, z]), B0 = B(z0), by ``_segment_transfer`` at tol 1e-10.

    z0 is f's one zero in the disk, a simple one, so the integrand is
    holomorphic there but for a removable singularity at z0: the integral
    does not depend on the path, and equals minus the improper integral of
    B(F_t z) - B0 over t in [0, infinity) along the trajectory.
    """
    z = complex(z)
    if _generator_dim(B, z) != 1:
        raise ValueError("the closed-form interior linearizer is scalar-only")
    if not model.is_interior:
        raise TailNotConvergingError("interior fixed point required")
    if model.rate.real <= 0:
        raise TailNotConvergingError("Re(-f'(z0)) <= 0: no decay toward z0")
    if abs(z) >= 1.0:
        raise OutOfDomainError("flow point outside the open unit disk")
    if z == model.z0:
        return 1.0 + 0.0j
    b0 = _generator_batch(B, np.array([model.z0]), 1)[0, 0, 0]
    return _segment_transfer(model.f, B, model.z0, b0, z, 1e-10, 0.1 * (1.0 - abs(model.z0)))


def commutative_linearize_nofix(f, B, z: complex, *, tol: float = 1e-10) -> complex:
    """Scalar transfer map M(z) = exp(-integral of B/f along [0, z]) for
    semigroups without an interior fixed point.

    The cocycle is then the coboundary Gamma_t(z) = M(F_t z)^{-1} M(z).
    ``tol`` is ``_segment_transfer``'s per-step tolerance, relative to
    1 + |log M|, not an absolute quadrature error.  f must not vanish at 65
    probes of [0, z].
    """
    z = complex(z)
    if _generator_dim(B, z / 2 if z else 0.0) != 1:
        raise ValueError("the closed-form linearizer is scalar-only")
    if np.min(np.abs(f(np.linspace(0.0, 1.0, 65) * z))) <= 1e-8:
        raise PoleOnPathError("generator vanishes on the integration segment")
    return _segment_transfer(f, B, 0.0, 0.0, z, tol)


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
