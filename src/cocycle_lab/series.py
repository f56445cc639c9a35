"""Truncated power series with scalar or square-matrix coefficients.

A series is a center plus coefficients ``c_0 ... c_N`` of the expansion in
``(z - center)``.  A product truncates to the lower operand order; matrix
coefficients multiply in the order written, so nothing here assumes that
they commute.  The coefficient-array kernels below (Horner evaluation,
Cauchy product, Horner composition, binomial shift) are the only copies of
those jobs in the package.  A scalar factor multiplies as its
lower-triangular Toeplitz matrix; composition builds the Toeplitz matrix
of the inner series once for all Horner steps.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CenterMismatchError, NotInvertibleError

_CENTER_ATOL = 1e-12


def horner(coeffs: np.ndarray, u):
    """sum_k coeffs[k] u^k by Horner's rule.

    ``u`` is a point or an ndarray of points; coefficients of shape
    ``(N+1,) + tail`` give a result of shape ``u.shape + tail``.
    """
    tail = coeffs.shape[1:]
    u = np.asarray(u, dtype=complex)
    if coeffs.shape[0] == 1:
        return np.full(u.shape + tail, coeffs[0], dtype=complex)
    if tail:
        u = u.reshape(u.shape + (1,) * len(tail))
    acc = coeffs[-1] * u
    acc += coeffs[-2]
    for k in range(coeffs.shape[0] - 3, -1, -1):
        acc *= u
        acc += coeffs[k]
    return acc


def _toeplitz(s: np.ndarray) -> np.ndarray:
    """Lower-triangular Toeplitz matrix T[k, l] = s[k - l] (0 above the diagonal).

    T is a copy of a view into ``[0]*n + s`` whose rows step forward and
    whose columns step back through that buffer.
    """
    n, size = s.shape[0], s.itemsize
    padded = np.zeros(2 * n, dtype=s.dtype)
    padded[n:] = s
    return np.ndarray((n, n), s.dtype, padded, n * size, (size, -size)).copy()


def _apply_toeplitz(toeplitz: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Product of a scalar series, given by its Toeplitz matrix, with ``other``."""
    n = toeplitz.shape[0]
    return (toeplitz @ other.reshape(n, -1)).reshape(other.shape)


def _mul_coeffs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy product of coefficient arrays, truncated to the shorter one.

    Each operand holds scalar ``(N+1,)`` or matrix ``(N+1, n, n)``
    coefficients; matrix factors multiply in the written order.
    """
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    if a.ndim == 3 and b.ndim == 3:
        return np.stack([np.matmul(a[: k + 1], b[k::-1]).sum(axis=0) for k in range(n)])
    # a scalar factor commutes: apply its lower-triangular Toeplitz matrix
    s, other = (a, b) if a.ndim == 1 else (b, a)
    return _apply_toeplitz(_toeplitz(s), other)


def _compose_coeffs(outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Horner composition outer(inner) on coefficient arrays, inner[0] taken
    as 0; ``outer`` has scalar or matrix coefficients, ``inner`` scalar.

    Every Horner step multiplies the accumulator by the same Toeplitz matrix
    of ``inner``, built once.  Horner starts at the last nonzero coefficient
    of ``outer``: the steps above it would only carry exact zeros, so a
    polynomial of degree d takes d steps.
    """
    n = min(outer.shape[0], inner.shape[0])
    t = inner[:n].copy()
    t[0] = 0.0
    t_toeplitz = _toeplitz(t)
    acc = np.zeros((n,) + outer.shape[1:], dtype=complex)
    nonzero = np.flatnonzero(np.any(outer[:n].reshape(n, -1), axis=1))
    top = nonzero[-1] if nonzero.size else 0
    acc[0] = outer[top]
    for k in range(top - 1, -1, -1):
        acc = _apply_toeplitz(t_toeplitz, acc)
        acc[0] += outer[k]
    return acc


def _shift_poly(coeffs: np.ndarray, center: complex) -> np.ndarray:
    """Coefficients of p(center + u) in powers of u (exact binomial shift);
    the coefficients of p may be scalars or matrices."""
    c = np.asarray(coeffs, dtype=complex)
    d = c.shape[0]
    out = np.zeros_like(c)
    for j in range(d):
        acc = np.zeros_like(c[0])
        for k in range(d - 1, j - 1, -1):
            acc = acc * center + math.comb(k, j) * c[k]
        out[j] = acc
    return out


class _Series:
    """Shared storage, truncation and product of scalar- and
    matrix-coefficient series."""

    def __init__(self, center, coeffs):
        self.center = complex(center)
        self.coeffs = np.asarray(coeffs, dtype=complex)
        if not np.all(np.isfinite(self.coeffs.view(float))):
            raise ValueError("series has non-finite coefficients")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def _wrap(self, coeffs):
        return type(self)(self.center, coeffs)

    def truncate(self, order: int):
        if order >= self.order:
            return self
        return self._wrap(self.coeffs[: order + 1])

    def __mul__(self, other):
        if abs(self.center - other.center) > _CENTER_ATOL:
            raise CenterMismatchError(f"centers differ: {self.center} vs {other.center}")
        out = _mul_coeffs(self.coeffs, other.coeffs)
        return (MatrixSeries if out.ndim == 3 else ScalarSeries)(self.center, out)


class ScalarSeries(_Series):
    """Truncated Taylor series with complex coefficients."""

    def __init__(self, center, coeffs):
        super().__init__(center, coeffs)
        if self.coeffs.ndim != 1:
            raise ValueError("scalar series needs a flat coefficient list")

    @classmethod
    def identity(cls, order: int, center=0.0) -> "ScalarSeries":
        """The identity map z -> z expanded about ``center``."""
        c = np.zeros(order + 1, dtype=complex)
        c[0] = center
        if order >= 1:
            c[1] = 1.0
        return cls(center, c)

    def evaluate(self, z):
        """Horner evaluation; accepts a point or an ndarray of points."""
        acc = horner(self.coeffs, np.asarray(z, dtype=complex) - self.center)
        return complex(acc) if acc.shape == () else acc

    __call__ = evaluate


class MatrixSeries(_Series):
    """Truncated Taylor series with n-by-n complex matrix coefficients."""

    def __init__(self, center, coeffs):
        super().__init__(center, coeffs)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise ValueError("matrix series needs coefficients of shape (N+1, n, n)")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def evaluate(self, z):
        """Horner evaluation; for an array of m points returns (m, n, n)."""
        return horner(self.coeffs, np.asarray(z, dtype=complex) - self.center)

    __call__ = evaluate


def compose(outer: _Series, inner: ScalarSeries) -> _Series:
    """Taylor coefficients of outer(inner(.)) about inner's center.

    The constant term of ``inner`` must equal the center of ``outer`` so the
    composition is a well-defined formal operation.
    """
    if not isinstance(inner, ScalarSeries):
        raise TypeError("inner series must be scalar")
    if abs(inner.coeffs[0] - outer.center) > _CENTER_ATOL:
        raise CenterMismatchError(
            "inner constant term does not match the outer center"
        )
    return type(outer)(inner.center, _compose_coeffs(outer.coeffs, inner.coeffs))


def _recip_coeffs(c: np.ndarray) -> np.ndarray:
    """Coefficients of 1 / series for scalar coefficients, c[0] != 0; a
    constant series (a polynomial's denominator) returns at once."""
    if abs(c[0]) < 1e-300:
        raise NotInvertibleError("reciprocal of a series with zero constant term")
    out = np.zeros_like(c)
    out[0] = 1.0 / c[0]
    if not np.any(c[1:]):
        return out
    for k in range(1, c.shape[0]):
        out[k] = -np.dot(out[:k], c[k:0:-1]) / c[0]
    return out


def reciprocal(s: ScalarSeries) -> ScalarSeries:
    return ScalarSeries(s.center, _recip_coeffs(s.coeffs))


def _rational_taylor(num: np.ndarray, den: np.ndarray, center: complex, order: int) -> _Series:
    """Taylor series of num(z) / den(z) about ``center`` from ascending
    polynomial coefficients: ``num`` scalar or matrix, ``den`` scalar.

    Raises ZeroDivisionError when the denominator vanishes at the center.
    """
    den_c = _shift_poly(den, center)
    if abs(den_c[0]) < 1e-14 * max(1.0, float(np.max(np.abs(den)))):
        raise ZeroDivisionError("denominator vanishes at the expansion center")

    def padded(c):
        out = np.zeros((order + 1,) + c.shape[1:], dtype=complex)
        out[: c.shape[0]] = c[: order + 1]
        return out

    num_c = padded(_shift_poly(num, center))
    num_s = (MatrixSeries if num_c.ndim == 3 else ScalarSeries)(center, num_c)
    return num_s * reciprocal(ScalarSeries(center, padded(den_c)))


def revert(s: ScalarSeries) -> ScalarSeries:
    """Compositional inverse g with s(g(w)) = w + O(w^{N+1}).

    ``s`` must vanish at its center and have a nonzero linear coefficient,
    both judged on the scale max(1, |c_0|, |c_1|): the higher coefficients
    grow geometrically in a Koenigs series about a point near the circle.
    The result is centered at 0 with constant term equal to s's center, so
    evaluating it at w returns an actual preimage point.

    Newton steps g <- g - (s(g) - w) / s'(g) run at the truncation sizes
    ceil((N+1) / 2^j) above 2, in ascending order (3, 5, 9, 17, 33, 65 at
    N = 64), each on the first ``size`` coefficients only.  If g is exact
    up to w^(p-1), then s(g) - w = s'(g) (g - g*) + O(w^(2p)), so one step
    leaves g exact up to w^(2p-1): p exact coefficients become 2p, and each
    size is at most twice the previous one.  g = w / c_1 starts with 2.
    """
    c = s.coeffs
    scale = max(1.0, *np.abs(c[:2]))
    if abs(c[0]) > 1e-10 * scale:
        raise NotInvertibleError("series to revert must vanish at its center")
    if s.order < 1 or abs(c[1]) <= 1e-12 * scale:
        raise NotInvertibleError("linear coefficient below tolerance")
    n = s.order
    ident = np.zeros(n + 1, dtype=complex)
    ident[1] = 1.0
    ds = np.zeros(n + 1, dtype=complex)
    ds[: n] = c[1:] * np.arange(1, n + 1)
    g = ident / c[1]
    sizes = []
    size = n + 1
    while size > 2:
        sizes.append(size)
        size = (size + 1) // 2
    for size in reversed(sizes):
        err = _compose_coeffs(c[:size], g[:size]) - ident[:size]
        slope = _compose_coeffs(ds[:size], g[:size])
        g[:size] -= _mul_coeffs(err, _recip_coeffs(slope))
    g[0] = s.center
    return ScalarSeries(0.0, g)
