"""Dense complex matrix kernel: inverses, exponentials, norms, spectra,
and the vectorized commutator-resolvent solve behind the linearization
recursion.

Matrices are plain ``numpy.ndarray`` values of shape ``(n, n)`` and dtype
complex; scalars are Python ``complex``.  The ambient norm is the spectral
(operator 2-) norm, under which the logarithmic norm of ``a`` is the largest
eigenvalue of its Hermitian part.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import NoConvergenceError, SingularMatrixError

#: relative threshold below which a singular value counts as zero
SINGULARITY_RTOL = 1e-10

#: relative threshold below which k*lambda counts as a spectral point of ad_B0
RESONANCE_RTOL = 1e-8

#: largest matrix dimension accepted by the eigensolver
MAX_EIG_DIM = 32


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    return m


def as_pairs(a) -> list:
    """JSON form of complex data: each entry becomes a ``[re, im]`` pair,
    nested like the array (a scalar gives one pair)."""
    return np.stack([np.real(a), np.imag(a)], -1).tolist()


def identity_like(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def mat_inv(a) -> np.ndarray:
    """Inverse of ``a``; raises SingularMatrixError near rank deficiency."""
    m = as_matrix(a)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= SINGULARITY_RTOL * max(sv[0], 1e-300):
        raise SingularMatrixError(
            f"smallest singular value {sv[-1]:.3e} below threshold"
        )
    return np.linalg.solve(m, identity_like(m.shape[0]))


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a [13/13] Pade kernel."""
    m = as_matrix(a)
    n = m.shape[0]
    # squarings chosen so the scaled norm sits inside the Pade-13 accuracy bound
    theta13 = 5.371920351148152
    nrm = float(np.linalg.norm(m, 1))
    s = max(0, int(np.ceil(np.log2(nrm / theta13))) if nrm > theta13 else 0)
    x = m / (2.0**s)
    b = (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0,
        670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
        960960.0, 16380.0, 182.0, 1.0,
    )
    ident = identity_like(n)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _as_stack(a) -> tuple[np.ndarray, bool]:
    """``a`` as a stack (m, n, n) of finite square matrices, and whether it was one matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 3:
        return as_matrix(m)[None], True
    if m.shape[1] != m.shape[2] or not np.all(np.isfinite(m)):
        raise ValueError(f"expected a stack of finite square matrices, got shape {m.shape}")
    return m, False


def operator_norm(a):
    """Spectral norm (largest singular value).  ``a`` is one matrix (gives a
    float) or a stack of shape ``(m, n, n)`` (gives an array of m values)."""
    m, single = _as_stack(a)
    norms = np.linalg.norm(m, 2, axis=(1, 2))
    return float(norms[0]) if single else norms


def log_norm(a):
    """Logarithmic norm for the spectral norm: the right-most eigenvalue of
    the Hermitian part ``(a + a*) / 2``.

    This equals the one-sided derivative lim_{t->0+} (||I + t a|| - 1) / t
    and controls growth bounds exp(integral of log_norm) for linear
    evolution problems.  ``a`` is one matrix (gives a float) or a stack of
    shape ``(m, n, n)`` (gives an array of m values).
    """
    m, single = _as_stack(a)
    herm = (m + m.conj().transpose(0, 2, 1)) / 2.0
    top = np.linalg.eigvalsh(herm)[:, -1]
    return float(top[0]) if single else top


def eigenvalues(a, max_dim: int = MAX_EIG_DIM) -> np.ndarray:
    """All eigenvalues with multiplicity (dense QR-based solver)."""
    m = as_matrix(a)
    if m.shape[0] > max_dim:
        raise ValueError(f"dimension {m.shape[0]} exceeds the cap {max_dim}")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK cap
        raise NoConvergenceError(str(exc)) from exc


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def ad_matrix(b0) -> np.ndarray:
    """Matrix of the commutator map m -> m b0 - b0 m under column stacking.

    Its spectrum, in finite dimensions, is exactly the multiset of pairwise
    eigenvalue differences of ``b0``.
    """
    m = as_matrix(b0)
    n = m.shape[0]
    ident = identity_like(n)
    return np.kron(m.T, ident) - np.kron(ident, m)


class _Resolvent(NamedTuple):
    """``k*lam*I - ad_matrix(b0)`` with its SVD and resonance cutoff.

    Fields are stacked along the leading axes of the orders they were built
    for.  ``scale`` is |k lam| + ||ad_B0||; order k is resonant when the
    smallest singular value is at most ``cutoff = resonance_rtol * scale``.
    """

    lhs: np.ndarray
    u: np.ndarray
    sv: np.ndarray
    vh: np.ndarray
    scale: np.ndarray
    cutoff: np.ndarray

    @property
    def resonant(self):
        return self.sv[..., -1] <= self.cutoff


def _resolvent(orders, lam: complex, b0, resonance_rtol: float) -> _Resolvent:
    """Build and factor the resolvent matrix of the linearization recursion
    at each order in ``orders`` (an int or an array of ints)."""
    ad = ad_matrix(b0)
    kl = np.asarray(orders) * complex(lam)
    lhs = kl[..., None, None] * np.eye(ad.shape[0]) - ad
    u, sv, vh = np.linalg.svd(lhs)
    scale = np.abs(kl) + float(np.linalg.norm(ad, 2))
    return _Resolvent(lhs, u, sv, vh, scale, resonance_rtol * np.maximum(scale, 1e-300))


@dataclass(frozen=True)
class SylvesterOutcome:
    """Result of one commutator-resolvent solve.

    kind is "unique", "resonant_solvable", or "obstructed"; the solution is
    absent exactly in the obstructed case.  ``residual`` is the spectral norm
    of ``k*lam*m - (m b0 - b0 m) - rhs`` for the returned m (or of the
    least-squares defect when no solution exists).
    """

    kind: str
    solution: Optional[np.ndarray]
    residual: float
    smallest_singular_value: float


def sylvester_resolve(
    k: int,
    lam: complex,
    b0,
    rhs,
    tol: float = 1e-10,
    *,
    resonance_rtol: float = RESONANCE_RTOL,
) -> SylvesterOutcome:
    """Solve ``k*lam*m - (m b0 - b0 m) = rhs`` for m.

    When the vectorized system is nonsingular the unique solution is
    returned.  When it is singular, the minimum-norm least-squares solution
    (null-space components zeroed) is returned as "resonant_solvable" if the
    right-hand side lies in the range (defect <= tol), else the outcome is
    "obstructed".
    """
    if k < 1:
        raise ValueError("order k must be a positive integer")
    b = as_matrix(b0)
    r = as_matrix(rhs)
    n = b.shape[0]
    res = _resolvent(k, lam, b, resonance_rtol)
    sigma_min = float(res.sv[-1])
    rv = vec(r)

    if not res.resonant:
        m = unvec(np.linalg.solve(res.lhs, rv), n)
        residual = operator_norm(k * lam * m - (m @ b - b @ m) - r)
        return SylvesterOutcome("unique", m, residual, sigma_min)

    # singular system: pseudo-inverse solve with the same cutoff
    keep = res.sv > res.cutoff
    inv_sv = np.where(keep, 1.0 / np.where(keep, res.sv, 1.0), 0.0)
    x = res.vh.conj().T @ (inv_sv * (res.u.conj().T @ rv))
    m = unvec(x, n)
    residual = operator_norm(k * lam * m - (m @ b - b @ m) - r)
    rhs_scale = max(1.0, operator_norm(r))
    if residual <= tol * rhs_scale:
        return SylvesterOutcome("resonant_solvable", m, residual, sigma_min)
    return SylvesterOutcome("obstructed", None, residual, sigma_min)
