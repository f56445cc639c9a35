"""Dense complex matrix kernel: inverses, exponentials, norms, the
commutator matrix, the complex Schur form, the kernel ``Commutator`` that
keeps both for one B0, and the commutator-resolvent solve behind the
linearization recursion.

Matrices are plain ``numpy.ndarray`` values of shape ``(n, n)`` and dtype
complex; scalars are Python ``complex``.  The ambient norm is the spectral
(operator 2-) norm, under which the logarithmic norm of ``a`` is the largest
eigenvalue of its Hermitian part.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionTooLargeError, SingularMatrixError

#: relative threshold below which a singular value counts as zero
SINGULARITY_RTOL = 1e-10

#: relative threshold below which k*lambda counts as a spectral point of ad_B0
RESONANCE_RTOL = 1e-8

#: largest n for which the n^2 x n^2 matrix of ad_B0 is built
MAX_AD_DIM = 32


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


def mat_inv(a) -> np.ndarray:
    """Inverse of ``a``; raises SingularMatrixError near rank deficiency."""
    m = as_matrix(a)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] <= SINGULARITY_RTOL * max(sv[0], 1e-300):
        raise SingularMatrixError(
            f"smallest singular value {sv[-1]:.3e} below threshold"
        )
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=complex))


def mat_exp(a) -> np.ndarray:
    """Matrix exponential by scaling and squaring with a [13/13] Pade kernel."""
    m = as_matrix(a)
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
    ident = np.eye(m.shape[0], dtype=complex)
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
    """``a`` as a stack (..., n, n) of finite square matrices, and whether it was one matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 3:
        return as_matrix(m)[None], True
    if m.shape[-1] != m.shape[-2] or not np.all(np.isfinite(m)):
        raise ValueError(f"expected a stack of finite square matrices, got shape {m.shape}")
    return m, False


def operator_norm(a):
    """Spectral norm (largest singular value).  ``a`` is one matrix (gives a
    float) or a stack of shape ``(..., n, n)`` (gives an array of shape
    ``(...)``)."""
    m, single = _as_stack(a)
    # singular values come sorted, largest first
    norms = np.linalg.svd(m, compute_uv=False)[..., 0]
    return float(norms[0]) if single else norms


def log_norm(a):
    """Logarithmic norm for the spectral norm: the right-most eigenvalue of
    the Hermitian part ``(a + a*) / 2``.

    This equals the one-sided derivative lim_{t->0+} (||I + t a|| - 1) / t
    and controls growth bounds exp(integral of log_norm) for linear
    evolution problems.  ``a`` is one matrix (gives a float) or a stack of
    shape ``(..., n, n)`` (gives an array of shape ``(...)``).
    """
    m, single = _as_stack(a)
    herm = (m + np.swapaxes(m.conj(), -1, -2)) / 2.0
    top = np.linalg.eigvalsh(herm)[..., -1]
    return float(top[0]) if single else top


def vec(m: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=complex).flatten(order="F")


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape((n, n), order="F")


def ad_matrix(b0) -> np.ndarray:
    """Matrix of the commutator map m -> m b0 - b0 m under column stacking.

    Its spectrum, in finite dimensions, is exactly the multiset of pairwise
    eigenvalue differences of ``b0``.  It is n^2 x n^2, so a ``b0`` larger
    than MAX_AD_DIM is refused with DimensionTooLargeError (a ValueError)
    before anything of that size is allocated.
    """
    m = as_matrix(b0)
    if m.shape[0] > MAX_AD_DIM:
        raise DimensionTooLargeError(
            f"dimension {m.shape[0]} exceeds the cap {MAX_AD_DIM} on ad_B0"
        )
    ident = np.eye(m.shape[0], dtype=complex)
    return np.kron(m.T, ident) - np.kron(ident, m)


def schur(a) -> tuple[np.ndarray, np.ndarray]:
    """Complex Schur form ``a = q t q^H``: q unitary, t upper triangular
    with the eigenvalues of ``a`` on its diagonal.

    Deflation, one column at a time: an eigenvalue mu of the trailing block,
    the right singular vector of ``block - mu`` for its smallest singular
    value, and the Householder reflection that maps that vector to the first
    axis.  What it leaves below the diagonal is that singular value, the
    backward error of mu, so a unitary basis holds even for a badly
    conditioned eigenbasis; t is returned with it zeroed.  The form is the
    one of Bartels & Stewart, CACM 15 (1972).
    """
    t = as_matrix(a).copy()
    n = t.shape[0]
    q = np.eye(n, dtype=complex)
    for j in range(n - 1):
        block = t[j:, j:]
        mu = np.linalg.eigvals(block)[0]
        v = np.linalg.svd(block - mu * np.eye(n - j))[2][-1].conj()
        # w = v - alpha e1 with |alpha| = 1 opposite in phase to v[0]: H v = alpha e1
        w = v.copy()
        w[0] += v[0] / abs(v[0]) if v[0] else 1.0
        w /= np.linalg.norm(w)
        t[j:] -= 2.0 * np.outer(w, w.conj() @ t[j:])
        t[:, j:] -= 2.0 * np.outer(t[:, j:] @ w, w.conj())
        q[:, j:] -= 2.0 * np.outer(q[:, j:] @ w, w.conj())
    return q, np.triu(t)


class _Resolvent(NamedTuple):
    """k lam - ad_B0 at the orders of one ``Commutator.resolvent`` call (the
    leading axes), its SVD (``u`` and ``vh`` None when only singular values
    were taken) and the ``scale`` and ``cutoff`` of ``Commutator.cutoff``."""

    lhs: np.ndarray
    u: Optional[np.ndarray]
    sv: np.ndarray
    vh: Optional[np.ndarray]
    scale: np.ndarray
    cutoff: np.ndarray

    @property
    def resonant(self):
        return self.sv[..., -1] <= self.cutoff


class Commutator:
    """The commutator map ad_B0: m -> m b0 - b0 m of a copy of one b0, built
    once for every order k lam - ad_B0 of the recursion: its n^2 x n^2
    ``matrix`` (``ad_matrix``, capped at MAX_AD_DIM), that matrix's 2-norm
    ``norm`` and b0's Schur form ``schur_form`` (``schur``'s q, t)."""

    def __init__(self, b0):
        self.b0 = as_matrix(b0).copy()
        self.matrix = ad_matrix(self.b0)
        self.norm = float(np.linalg.norm(self.matrix, 2))

    @cached_property
    def schur_form(self) -> tuple[np.ndarray, np.ndarray]:
        return schur(self.b0)  # taken on first use: resonant-only solves need none

    def cutoff(self, orders, lam, resonance_rtol):
        """The one resonance rule: order k (an int or an array of ints) is
        resonant when sigma_min(k lam - ad_B0) <= cutoff = resonance_rtol *
        scale, where scale = |k lam| + ||ad_B0||.  Returns ``(scale, cutoff)``;
        a tolerance outside the rule's domain [0, 1), NaN included, raises
        ValueError."""
        if not 0.0 <= resonance_rtol < 1.0:
            raise ValueError(f"resonance_rtol must lie in [0, 1), got {resonance_rtol!r}")
        scale = np.abs(np.asarray(orders) * complex(lam)) + self.norm
        return scale, resonance_rtol * np.maximum(scale, 1e-300)

    def resolvent(self, orders, lam, resonance_rtol, *, vectors=True) -> _Resolvent:
        """k lam - ad_B0 at each order in ``orders`` (an int or an array of
        ints), factored by one SVD batched over the orders; with
        ``vectors=False`` only the singular values are computed."""
        ad = self.matrix
        lhs = (np.asarray(orders) * complex(lam))[..., None, None] * np.eye(ad.shape[0]) - ad
        if vectors:
            u, sv, vh = np.linalg.svd(lhs)
        else:
            u, sv, vh = None, np.linalg.svd(lhs, compute_uv=False), None
        return _Resolvent(lhs, u, sv, vh, *self.cutoff(orders, lam, resonance_rtol))

    def sweeper(self, lam, orders):
        """The column sweep for t, the triangle of ``schur_form``: a function
        of (k, rhs), k one of ``orders``, that solves k lam x - (x t - t x) =
        rhs one column at a time, x_j = (k lam + t - t_jj)^-1 (rhs_j +
        sum_{i<j} t_ij x_i).  The blocks k lam + t - t_jj of every order and
        column share t's strictly upper part and differ only in their
        diagonals, so their inverses come from one back substitution over t's
        rows, n batched products for all of them (order n^3 values); those of
        one order do not depend on the others, so a batched sweep equals a
        one-order sweep bit for bit.  An exactly zero diagonal entry, a
        singular block, raises ``np.linalg.LinAlgError`` before any division."""
        t = self.schur_form[1]
        n = t.shape[0]
        kls = np.asarray(orders) * complex(lam)
        d = np.diagonal(t)
        diag = kls[:, None, None] + (d - d[:, None])  # [order, j, i] = k lam + t_ii - t_jj
        if not diag.all():
            raise np.linalg.LinAlgError("Singular matrix")
        recip = 1.0 / diag
        eye = np.eye(n)
        inv = np.empty((len(kls), n, n, n), dtype=complex)  # [order, i, j, :] = row i of block j
        rows = inv.reshape(len(kls), n, n * n)
        for i in range(n - 1, -1, -1):
            upper = (t[i, i + 1 :] @ rows[:, i + 1 :]).reshape(len(kls), n, n)
            inv[:, i] = (eye[i] - upper) * recip[..., i, None]
        invs = dict(zip(orders, inv))
        coefs = [np.append(t[:j, j], 1.0) for j in range(n)]  # t_0j, ..., t_{j-1,j}, 1

        def sweep(k: int, rhs: np.ndarray) -> np.ndarray:
            inv = invs[k]
            x = np.array(rhs.T, dtype=complex)  # row j holds r_j until x_j overwrites it
            for j, coef in enumerate(coefs):
                x[j] = inv[:, j] @ (coef @ x[: j + 1])
            return x.T

        return sweep


@dataclass(frozen=True)
class SylvesterOutcome:
    """Result of one commutator-resolvent solve.

    kind is "unique", "resonant_solvable", or "obstructed"; the solution is
    absent exactly in the obstructed case.  ``residual`` is the Frobenius norm
    of ``k*lam*m - (m b0 - b0 m) - rhs`` for the solved m (or of the
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
    """Solve ``k*lam*m - (m b0 - b0 m) = rhs`` for m; ``b0`` is a matrix or
    its ``Commutator``, which callers solving many orders build once.

    Every order first takes the singular values of k lam - ad_B0, which the
    resonance rule ``Commutator.cutoff`` (it refuses a bad ``resonance_rtol``)
    judges.  Only a resonant order then takes the full SVD and gets the
    minimum-norm least-squares solution from it (null-space components
    zeroed), "resonant_solvable" if its defect in the factored system is at
    most tol * max(1, ||rhs||_F), else "obstructed".  Every other order gets
    the unique solution from ``Commutator.sweeper`` for the one order k in
    the Schur basis of b0 (n triangular blocks, n^3 values).
    """
    if k < 1:
        raise ValueError("order k must be a positive integer")
    ad = b0 if isinstance(b0, Commutator) else Commutator(b0)
    b, r = ad.b0, as_matrix(rhs)
    res = ad.resolvent(k, lam, resonance_rtol, vectors=False)
    sigma_min = float(res.sv[-1])
    if res.resonant:  # singular system: pseudo-inverse solve with the same cutoff
        res = ad.resolvent(k, lam, resonance_rtol)
        keep = res.sv > res.cutoff
        inv_sv = np.where(keep, 1.0 / np.where(keep, res.sv, 1.0), 0.0)
        x = res.vh.conj().T @ (inv_sv * (res.u.conj().T @ vec(r)))
        residual = float(np.linalg.norm(res.lhs @ x - vec(r)))
        if residual > tol * max(1.0, np.linalg.norm(r)):
            return SylvesterOutcome("obstructed", None, residual, sigma_min)
        return SylvesterOutcome("resonant_solvable", unvec(x, b.shape[0]), residual, sigma_min)
    q = ad.schur_form[0]
    m = q @ ad.sweeper(lam, [k])(k, q.conj().T @ r @ q) @ q.conj().T
    residual = float(np.linalg.norm(k * complex(lam) * m - (m @ b - b @ m) - r))
    return SylvesterOutcome("unique", m, residual, sigma_min)
