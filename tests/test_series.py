"""Truncated power-series algebra tests."""

import numpy as np
import pytest

from cocycle_lab import series
from cocycle_lab.errors import CenterMismatchError, NotInvertibleError
from cocycle_lab.series import (
    MatrixSeries,
    ScalarSeries,
    compose,
    revert,
)

RNG = np.random.default_rng(77)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)


def identity_series(order, center=0.0):
    """The identity map z -> z expanded about ``center``."""
    c = np.zeros(order + 1, dtype=complex)
    c[0] = center
    if order >= 1:
        c[1] = 1.0
    return ScalarSeries(center, c)


def geometric_series(order):
    """1 + w + w^2 + ... (the expansion of z/(1-z) shifted by one is all ones)."""
    return ScalarSeries(0.0, np.ones(order + 1, dtype=complex))


class TestArithmetic:
    def test_scalar_product(self):
        a = ScalarSeries(0.0, [1, 1, 0])
        b = ScalarSeries(0.0, [1, -1, 0])
        assert np.allclose((a * b).coeffs, [1, 0, -1])

    def test_matrix_product_keeps_order(self):
        i2 = np.eye(2, dtype=complex)
        a = MatrixSeries(0.0, np.stack([i2, E12]))
        b = MatrixSeries(0.0, np.stack([i2, E21]))
        prod_ab = a * b
        # only order-1 data available on both sides
        assert prod_ab.order == 1
        assert np.allclose(prod_ab.coeffs[1], E12 + E21)
        wide_a = MatrixSeries(0.0, np.stack([i2, E12, np.zeros_like(i2)]))
        wide_b = MatrixSeries(0.0, np.stack([i2, E21, np.zeros_like(i2)]))
        prod = wide_a * wide_b
        assert np.allclose(prod.coeffs[2], E12 @ E21)
        assert np.allclose(E12 @ E21, E11)

    def test_order_truncates_to_min(self):
        a = ScalarSeries(0.0, np.ones(3))
        b = ScalarSeries(0.0, np.ones(6))
        assert (a * b).order == 2

    def test_center_mismatch(self):
        a = ScalarSeries(0.0, [1, 1])
        b = ScalarSeries(0.5, [1, 1])
        with pytest.raises(CenterMismatchError):
            _ = a * b


def random_series(kind, order, rng):
    """Random series with scalar or non-commuting 3x3 coefficients."""
    shape = (order + 1,) if kind == "scalar" else (order + 1, 3, 3)
    return (ScalarSeries if kind == "scalar" else MatrixSeries)(
        0.0, rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    )


@pytest.mark.parametrize(
    "left, right",
    [("scalar", "scalar"), ("scalar", "matrix"), ("matrix", "scalar"), ("matrix", "matrix")],
)
def test_product_matches_double_loop(left, right):
    rng = np.random.default_rng(5)
    a = random_series(left, 6, rng)
    b = random_series(right, 5, rng)
    prod = a * b
    assert prod.order == 5
    for k in range(6):
        ref = sum(
            a.coeffs[l] @ b.coeffs[k - l]
            if left == right == "matrix"
            else a.coeffs[l] * b.coeffs[k - l]
            for l in range(k + 1)
        )
        assert np.allclose(prod.coeffs[k], ref, rtol=0, atol=1e-12)
    if left == right == "matrix":
        # the coefficients do not commute, so the written order matters
        assert not np.allclose((b * a).coeffs[1], prod.coeffs[1])


class TestCompose:
    def test_identity_outer(self):
        s = ScalarSeries(0.0, RNG.standard_normal(7) + 1j * RNG.standard_normal(7))
        out = compose(identity_series(6, center=s.coeffs[0]), s)
        assert np.allclose(out.coeffs, s.coeffs)

    def test_square_outer(self):
        outer = ScalarSeries(0.0, [0, 0, 1, 0, 0])
        inner = ScalarSeries(0.0, [0, 1, 1, 0, 0])
        out = compose(outer, inner)
        assert np.allclose(out.coeffs, [0, 0, 1, 2, 1])

    def test_matrix_outer_identity_inner(self):
        # matrix-coefficient polynomial composed with the identity is itself
        coeffs = np.stack([np.diag([1.0, 2.0]).astype(complex), E12, np.zeros((2, 2))])
        outer = MatrixSeries(0.0, coeffs)
        out = compose(outer, identity_series(2))
        assert np.allclose(out.coeffs, coeffs)

    def test_constant_term_must_match_center(self):
        outer = ScalarSeries(0.0, [1, 1])
        inner = ScalarSeries(0.0, [0.3, 1])
        with pytest.raises(CenterMismatchError):
            compose(outer, inner)


class TestRevert:
    def test_identity(self):
        out = revert(identity_series(8))
        assert np.allclose(out.coeffs, identity_series(8).coeffs)

    def test_geometric(self):
        # z/(1-z) reverts to w/(1+w)
        coeffs = np.ones(9, dtype=complex)
        coeffs[0] = 0.0
        out = revert(ScalarSeries(0.0, coeffs))
        expected = np.array([0] + [(-1.0) ** (k - 1) for k in range(1, 9)])
        assert np.allclose(out.coeffs, expected, atol=1e-12)

    def test_linear_rescale(self):
        out = revert(ScalarSeries(0.0, [0, 2, 0, 0]))
        assert np.allclose(out.coeffs, [0, 0.5, 0, 0])

    def test_needs_linear_term(self):
        with pytest.raises(NotInvertibleError):
            revert(ScalarSeries(0.0, [0, 0, 1]))

    def test_round_trip_random(self):
        for _ in range(20):
            c = 0.5 * (RNG.standard_normal(11) + 1j * RNG.standard_normal(11))
            c[0] = 0.0
            c[1] = 1.0
            s = ScalarSeries(0.0, c)
            ident = compose(s, revert(s))
            target = identity_series(10).coeffs
            assert np.max(np.abs(ident.coeffs - target)) <= 1e-10

    # the Newton sizes change shape here: none at order 1, one step at 2-3,
    # and a new smallest size as N + 1 passes 2^j + 1 (orders 4 and 16)
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 15, 16, 17])
    def test_round_trip_at_schedule_edges(self, order):
        # The absolute residual of s(g) - w grows with the size of g's
        # coefficients, which a random series can make large: 2.3e-10 for
        # _decaying(16) with c_1 = 1 and Newton steps at the full length.
        # So each coefficient of the residual is scaled by the same
        # coefficient of |s|(|g|), the size of the terms Horner's rule sums
        # there (measured: at most 3e-16 of it up to order 64).
        c = _decaying(order)
        c[0], c[1] = 0.0, -1.0 + 0.2j
        s = ScalarSeries(0.0, c)
        g = revert(s)
        residual = np.abs(compose(s, g).coeffs - identity_series(order).coeffs)
        terms = compose(ScalarSeries(0.0, np.abs(c)), ScalarSeries(0.0, np.abs(g.coeffs)))
        assert residual[0] == 0.0
        assert np.all(residual[1:] <= 1e-14 * terms.coeffs.real[1:])

    @pytest.mark.parametrize("modulus, tol", [(0.5, 1e-15), (0.6, 2e-11)])
    def test_matches_closed_form_inverse(self, modulus, tol):
        # z/(1 - cz) reverts to w/(1 + cw) at every order from 1 to 65; the
        # worst error is 2.9e-16 at |c| = 0.5 and 1.4e-11 at |c| = 0.6, as
        # with Newton steps at the full length
        for arg in range(8):
            c = modulus * np.exp(2j * np.pi * arg / 8)
            for order in range(1, 66):
                powers = c ** np.arange(order)
                s = ScalarSeries(0.0, np.concatenate([[0.0], powers]))
                expected = np.concatenate([[0.0], powers * (-1.0) ** np.arange(order)])
                assert np.max(np.abs(revert(s).coeffs - expected)) <= tol

    @pytest.mark.parametrize("c", [20.0, 20j])
    def test_growing_coefficients_revert(self, c):
        # z/(1 - cz) at order 24 has c_23 = 20^23 against c_1 = 1, and still
        # reverts to w/(1 + cw), each coefficient to 2e-15 relative
        powers = c ** np.arange(24)
        s = ScalarSeries(0.0, np.concatenate([[0.0], powers]))
        got = revert(s).coeffs[1:]
        expected = powers * (-1.0) ** np.arange(24)
        assert np.max(np.abs(got - expected) / np.abs(expected)) <= 2e-15


# Work-counter gate: Toeplitz products in one order-64 revert.  Newton steps
# at the sizes 3, 5, 9, 17, 33, 65 each compose once and take two products,
# 138 in all (258 when each step also composed s' with g; 1,161 when all 9
# steps composed twice at the full length 65); the bound leaves room for a
# few more.
def test_revert_work_at_order_64(toeplitz_counter):
    c = _decaying(64)
    c[0], c[1] = 0.0, -1.0 + 0.2j
    revert(ScalarSeries(0.0, c))
    assert toeplitz_counter.calls <= 144


class TestEvaluate:
    def test_polynomial(self):
        s = ScalarSeries(0.0, [1, 1, 1])
        assert s.evaluate(1.0) == pytest.approx(3.0)

    def test_koenigs_closed_form(self):
        # truncated expansion of z/(1-z) at z = 0.5 approaches 1
        coeffs = np.ones(40, dtype=complex)
        coeffs[0] = 0.0
        s = ScalarSeries(0.0, coeffs)
        assert s.evaluate(0.5) == pytest.approx(1.0, abs=1e-11)

    def test_center_returns_constant(self):
        s = ScalarSeries(0.3 + 0.1j, [2.5 - 1j, 4, 4])
        assert s.evaluate(0.3 + 0.1j) == pytest.approx(2.5 - 1j)

    def test_matrix_batch(self):
        m = MatrixSeries(0.0, np.stack([np.eye(2, dtype=complex), E12]))
        pts = np.array([0.1, 0.2 + 0.1j])
        out = m.evaluate(pts)
        assert out.shape == (2, 2, 2)
        assert np.allclose(out[1], np.eye(2) + (0.2 + 0.1j) * E12)


def _reference_horner(coeffs, u):
    """Horner's rule from an array filled with the leading coefficient."""
    tail = coeffs.shape[1:]
    u = np.asarray(u, dtype=complex)
    acc = np.full(u.shape + tail, coeffs[-1], dtype=complex)
    u = u.reshape(u.shape + (1,) * len(tail))
    for k in range(coeffs.shape[0] - 2, -1, -1):
        acc = acc * u + coeffs[k]
    return acc


class TestHorner:
    @pytest.mark.parametrize("tail", [(), (2, 2)])
    def test_one_coefficient_gives_a_fresh_writable_array(self, tail):
        coeffs = (1.0 + np.arange(int(np.prod(tail)))).reshape((1,) + tail).astype(complex)
        u = np.zeros((3, 4), dtype=complex)
        out = series.horner(coeffs, u)
        assert out.shape == u.shape + tail and out.flags.writeable
        assert np.array_equal(out, np.broadcast_to(coeffs[0], out.shape))
        out[...] = 0.0
        assert np.all(coeffs != 0.0)

    @pytest.mark.parametrize("terms", [1, 2, 3, 9])
    @pytest.mark.parametrize("tail", [(), (2, 2)])
    def test_bit_equal_to_filled_start(self, terms, tail):
        rng = np.random.default_rng(terms)
        coeffs = rng.normal(size=(terms,) + tail) + 1j * rng.normal(size=(terms,) + tail)
        for u in (0.3 - 0.4j, rng.normal(size=7) + 1j * rng.normal(size=7)):
            assert np.array_equal(series.horner(coeffs, u), _reference_horner(coeffs, u))

    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_matrix_coefficients_give_the_point_shape_first(self, shape):
        # evaluated point-last, returned as a view of shape u.shape + tail
        rng = np.random.default_rng(len(shape))
        coeffs = rng.normal(size=(4, 2, 3)) + 1j * rng.normal(size=(4, 2, 3))
        u = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        out = series.horner(coeffs, u)
        assert out.shape == shape + (2, 3)
        assert np.array_equal(out, _reference_horner(coeffs, u))


class TestAssociativity:
    def test_matrix_cauchy_product(self):
        for _ in range(10):
            def rand_series():
                c = RNG.standard_normal((9, 2, 2)) + 1j * RNG.standard_normal((9, 2, 2))
                return MatrixSeries(0.0, c)

            a, b, c = rand_series(), rand_series(), rand_series()
            left = (a * b) * c
            right = a * (b * c)
            assert np.max(np.abs(left.coeffs - right.coeffs)) <= 1e-10


def test_reciprocal_inverts():
    c = RNG.standard_normal(8) + 1j * RNG.standard_normal(8)
    c[0] = 1.5
    s = ScalarSeries(0.0, c)
    prod = s * ScalarSeries(s.center, series._recip_coeffs(s.coeffs))
    target = np.zeros(8)
    target[0] = 1.0
    assert np.max(np.abs(prod.coeffs - target)) <= 1e-10


def _reference_mul(a, b):
    """Product with a scalar factor as one call of the first Cauchy-product
    kernel: the Toeplitz matrix of the scalar factor rebuilt from an index
    grid, times the other factor."""
    n = min(a.shape[0], b.shape[0])
    a, b = a[:n], b[:n]
    s, other = (a, b) if a.ndim == 1 else (b, a)
    assert s.ndim == 1
    k, l = np.indices((n, n))
    toeplitz = np.where(l <= k, s[k - l], 0.0)
    return (toeplitz @ other.reshape(n, -1)).reshape(other.shape)


def _reference_compose(outer, inner):
    """Horner composition as a loop of ``_reference_mul`` calls, each the
    Toeplitz matrix of the inner series times the accumulator."""
    n = min(outer.shape[0], inner.shape[0])
    t = inner[:n].copy()
    t[0] = 0.0
    acc = np.zeros((n,) + outer.shape[1:], dtype=complex)
    acc[0] = outer[n - 1]
    for k in range(n - 2, -1, -1):
        acc = _reference_mul(t, acc)
        acc[0] += outer[k]
    return acc


def _reference_recip(c):
    """Reciprocal series by its recursion at every order."""
    out = np.zeros_like(c)
    out[0] = 1.0 / c[0]
    for k in range(1, c.shape[0]):
        out[k] = -np.dot(out[:k], c[k:0:-1]) / c[0]
    return out


def _decaying(order, tail=()):
    """Random coefficients of size about 0.7^k."""
    rng = np.random.default_rng(order)
    c = rng.standard_normal((order + 1,) + tail) + 1j * rng.standard_normal((order + 1,) + tail)
    return c * (0.7 ** np.arange(order + 1)).reshape((-1,) + (1,) * len(tail))


class TestBitEqualToReference:
    """compose and revert build the inner Toeplitz matrix once, and skip the
    steps that would only carry exact zeros; the coefficients stay bit-equal
    to the per-step product loop."""

    @pytest.mark.parametrize("order", [1, 2, 24, 64])
    @pytest.mark.parametrize("tail", [(), (3, 3)], ids=["scalar", "matrix"])
    def test_compose(self, order, tail):
        inner = _decaying(order)
        inner[0] = 0.0
        outer_cls = MatrixSeries if tail else ScalarSeries
        outer = outer_cls(0.0, _decaying(order + 3, tail)[: order + 1])
        got = compose(outer, ScalarSeries(0.0, inner)).coeffs
        expected = _reference_compose(outer.coeffs, inner)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("degree", [0, 1, 5])
    @pytest.mark.parametrize("tail", [(), (3, 3)], ids=["scalar", "matrix"])
    def test_compose_polynomial_outer(self, degree, tail, toeplitz_counter):
        # trailing zero coefficients: Horner starts at the last nonzero one,
        # so a polynomial of degree d takes d Toeplitz steps, not 24
        inner = _decaying(24)
        inner[0] = 0.0
        coeffs = np.zeros((25,) + tail, dtype=complex)
        coeffs[: degree + 1] = _decaying(degree + 3, tail)[: degree + 1]
        outer = (MatrixSeries if tail else ScalarSeries)(0.0, coeffs)
        got = compose(outer, ScalarSeries(0.0, inner)).coeffs
        assert toeplitz_counter.calls == degree
        assert got.tobytes() == _reference_compose(coeffs, inner).tobytes()

    @pytest.mark.parametrize("den", [1.0, -1.0, 2.0 - 3.0j, -0.5 + 0.1j])
    def test_polynomial_taylor(self, den, monkeypatch):
        # a constant denominator skips the reciprocal's recursion; the Taylor
        # coefficients of a polynomial with zero entries stay bit-equal
        num = _decaying(3, (2, 2))
        num[:, 0, 1] = 0.0
        num[1:, 1, 0] = 0.0
        den = np.array([den], dtype=complex)
        got = series._rational_taylor(num, den, 0.3 - 0.1j, 24).coeffs
        monkeypatch.setattr(series, "_recip_coeffs", _reference_recip)
        expected = series._rational_taylor(num, den, 0.3 - 0.1j, 24).coeffs
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("order", [1, 2, 24, 64])
    def test_revert(self, order, monkeypatch):
        c = _decaying(order)
        c[0], c[1] = 0.0, -1.0 + 0.2j
        s = ScalarSeries(0.0, c)
        got = revert(s).coeffs
        monkeypatch.setattr(series, "_compose_coeffs", _reference_compose)
        monkeypatch.setattr(series, "_mul_coeffs", _reference_mul)
        expected = revert(s).coeffs
        assert got.tobytes() == expected.tobytes()
