"""Semigroup model tests: fixed points, Koenigs series, flow evaluation."""

import numpy as np
import pytest

from cocycle_lab import dynamics, integrate
from cocycle_lab.cocycle import CocycleGenerator, growth_report
from cocycle_lab.linearize import _koenigs_coordinate, commutative_linearize_interior, linearize
from cocycle_lab.dynamics import (
    RationalMap,
    build_model,
    flow_ode,
)
from cocycle_lab.series import ScalarSeries, compose, revert
from cocycle_lab.errors import (
    DomainEscapeError,
    NoInteriorFixedPointError,
    OutOfDomainError,
    ZeroRateError,
)
from conftest import koenigs_pair, manufactured_case

RNG = np.random.default_rng(5150)

LINEAR = RationalMap([0.0, -1.0])         # f(z) = -z
QUADRATIC = RationalMap([0.0, -1.0, 1.0])  # f(z) = z^2 - z
AFFINE = RationalMap([1.0, -1.0])          # f(z) = 1 - z


def schroeder_series(m):
    """h about z0 to the model's order, summed term by term from h' f = -lambda h:
    h_k = sum_{0<j<k} j h_j f_{k+1-j} / (lambda (k - 1))."""
    f_c = m.f.taylor(m.z0, m.order + 1).coeffs
    h = np.zeros(m.order + 1, dtype=complex)
    h[1] = 1.0
    for k in range(2, m.order + 1):
        h[k] = sum(j * h[j] * f_c[k + 1 - j] for j in range(1, k)) / (m.rate * (k - 1))
    return ScalarSeries(m.z0, h)


class TestRationalMap:
    def test_evaluation(self):
        f = RationalMap([2.0, 0.0, 1.0], [1.0, 1.0])  # (2 + z^2)/(1 + z)
        z = 0.3 + 0.2j
        assert f(z) == pytest.approx((2 + z**2) / (1 + z))

    def test_two_interior_zeros_refused(self):
        # f = -z(1 - 2z) vanishes at 0 and 0.5: no generator has two zeros
        with pytest.raises(ValueError, match="more than one zero inside the unit disk"):
            RationalMap([0, -1, 2])

    def test_taylor_matches_evaluation(self):
        f = RationalMap([0.0, 1.0], [1.0, -0.5])
        s = f.taylor(0.2, 12)
        z = 0.25
        assert s.evaluate(z) == pytest.approx(f(z), abs=1e-12)


class TestBuildModel:
    def test_linear(self):
        m = build_model(LINEAR)
        assert m.z0 == pytest.approx(0.0)
        assert m.rate == pytest.approx(1.0)
        assert np.allclose(m.koenigs_inv.coeffs[2:], 0.0)
        assert m.koenigs_inv.coeffs[1] == pytest.approx(1.0)

    def test_quadratic_koenigs_is_geometric(self):
        # h(z) = z/(1-z) solves h' (z^2 - z) = -h, and h^{-1}(w) = w/(1+w)
        # has the coefficients (-1)^(k-1)
        m = build_model(QUADRATIC)
        assert np.allclose(m.koenigs_inv.coeffs[1:], (-1.0) ** np.arange(24))
        assert m.rate == pytest.approx(1.0)

    def test_rescaled_linear(self):
        m = build_model(RationalMap([0.0, -2.0]))
        assert m.rate == pytest.approx(2.0)
        assert np.allclose(m.koenigs_inv.coeffs[2:], 0.0)

    def test_fixed_point_residual(self):
        f = RationalMap([0.03, -1.0, 0.4])
        m = build_model(f)
        assert abs(f(m.z0)) <= 1e-12

    def test_build_reuses_the_zeros_found_at_construction(self, monkeypatch):
        f = RationalMap([0.03, -1.0, 0.4])
        monkeypatch.setattr(dynamics, "_interior_roots", lambda c: pytest.fail("roots re-found"))
        assert build_model(f).z0 == f.zeros[0]

    def test_fixed_point_is_the_interior_zero(self):
        # Berkson-Porta form (tau - z)(1 - conj(tau) z) p with tau = 0.5 and
        # p = 0.2 + i; the zero at 2 lies outside the disk
        f = RationalMap(np.convolve([0.5, -1.0], [1.0, -0.5]) * (0.2 + 1j))
        m = build_model(f)
        assert m.z0 == pytest.approx(0.5, abs=1e-15)
        h = 1e-6
        assert m.rate == pytest.approx(-(f(0.5 + h) - f(0.5 - h)) / (2 * h), abs=1e-8)

    @pytest.mark.parametrize("tau, order", [(0.9, 24), (0.8, 48)])
    def test_fixed_point_near_the_circle_builds(self, tau, order):
        # h^{-1} has its pole at w = -(1 - tau^2) / tau, so its coefficients
        # grow like (tau / (1 - tau^2))^k, far above the linear one; only the
        # build is pinned here
        m = build_model(RationalMap(np.convolve([tau, -1.0], [1.0, -tau])), order=order)
        assert m.z0 == pytest.approx(tau, abs=1e-14)
        assert m.rate == pytest.approx(1.0 - tau**2, abs=1e-13)
        assert np.max(np.abs(m.koenigs_inv.coeffs)) > 1e15

    def test_koenigs_data_built_on_first_read(self, monkeypatch):
        # z0 and the rate come at once; f's one expansion, to the order,
        # builds h^{-1} on its first read
        expanded = []
        taylor = RationalMap.taylor

        def counted_taylor(f, center, order):
            expanded.append((center, order))
            return taylor(f, center, order)

        monkeypatch.setattr(RationalMap, "taylor", counted_taylor)
        m = build_model(QUADRATIC, order=16)
        assert m.z0 == 0 and m.rate == 1.0
        m.flow(0.5, 0.3)
        assert expanded == []
        inv = m.koenigs_inv
        assert expanded == [(0, 16)] and m.koenigs_inv is inv
        # h^{-1}(w) = w / (1 + w), exact in binary
        assert np.array_equal(inv.coeffs, np.append(0.0, (-1.0) ** np.arange(16)))

    @pytest.mark.parametrize("arg", [0.1, 1.3, 2.9])
    def test_koenigs_inverse_matches_the_closed_form(self, arg):
        # f = -z (1 - c z) has h^{-1}(w) = w / (1 + c w); reverting h, whose
        # coefficients are c^{k-1}, cancels binomial sums up to C(63, 31)
        # and misses (-c)^63 by 2e2 times its size
        c = 0.6 * np.exp(1j * arg)
        g = build_model(RationalMap([0.0, -1.0, c]), order=64).koenigs_inv.coeffs
        exact = (-c) ** np.arange(64)
        assert g[0] == 0.0
        assert np.all(np.abs(g[1:] - exact) <= 1e-14 * np.abs(exact))

    def test_koenigs_inverse_inverts_the_koenigs_series(self):
        # a rational f, z0 != 0, with a Taylor term at every order, against
        # the Schroeder series h summed term by term
        f = RationalMap([0.05, -1.0, 0.3 + 0.2j], [1.0, -0.4j, 0.1])
        m = build_model(f, order=64)
        assert m.z0 != 0 and m.koenigs_inv.coeffs[0] == m.z0
        h = schroeder_series(m)
        hg = compose(h, m.koenigs_inv).coeffs
        hg[1] -= 1.0
        assert np.max(np.abs(hg)) <= 1e-13
        m = build_model(f, order=24)
        assert np.max(np.abs(m.koenigs_inv.coeffs - revert(schroeder_series(m)).coeffs)) <= 1e-14

    @pytest.mark.parametrize("tau, order", [(0.9, 24), (0.8, 48)])
    def test_koenigs_inverse_conjugates_the_flow_near_the_circle(self, tau, order):
        # F_t(g(w)) = g(e^{-lambda t} w) for g = h^{-1}, whose pole lies at
        # w = -(1 - tau^2) / tau; the points sit at a tenth of that radius
        m = build_model(RationalMap(np.convolve([tau, -1.0], [1.0, -tau])), order=order)
        g = m.koenigs_inv
        ws = 0.1 * (1 - tau**2) / tau * np.exp(1j * np.array([0.0, 2.0, 4.0]))
        ts = np.array([0.5, 2.0])
        lhs = m.flow(ts, g(ws))
        rhs = g(np.exp(-m.rate * ts)[:, None] * ws)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_boundary_model_has_no_koenigs_data(self):
        m = build_model(AFFINE)
        assert m.koenigs_inv is None

    def test_boundary_generator_gives_boundary_model(self):
        # build_model decides, and each consumer that needs z0 refuses
        m = build_model(AFFINE, order=8)
        assert (m.is_interior, m.z0, m.rate, m.order) == (False, None, None, 8)
        assert m.flow(1.0, 0.0) == pytest.approx(1 - np.exp(-1), abs=1e-11)
        gen = CocycleGenerator.scalar([1.0], [1.0, -1.0])
        for refused in (lambda: linearize(m, gen), lambda: growth_report(m, gen, 0.3),
                        lambda: commutative_linearize_interior(m, gen, 0.3)):
            with pytest.raises(NoInteriorFixedPointError):
                refused()

    @pytest.mark.parametrize("f", [LINEAR, QUADRATIC, RationalMap([0.03, -1.0, 0.4]),
                                   RationalMap(np.convolve([0.5, -1.0], [1.0, -0.5]) * (0.2 + 1j))])
    def test_rate_is_the_taylor_coefficient_bit_for_bit(self, f):
        # polynomial f: -num'(z0) / den(z0) is -f'(z0) from f's Taylor series
        m = build_model(f)
        assert m.rate == -f.taylor(m.z0, 2).coeffs[1]

    def test_rate_of_rational_f_within_one_ulp(self):
        f = RationalMap([0.05, -1.0, 0.3 + 0.2j], [1.0, -0.4j, 0.1])
        m = build_model(f)
        ref = -f.taylor(m.z0, 2).coeffs[1]
        assert abs(m.rate - ref) <= np.spacing(abs(ref))

    def test_constant_generator_gives_boundary_model(self):
        assert not build_model(RationalMap([0.7 - 0.2j])).is_interior

    def test_zero_rate_raises(self):
        with pytest.raises(ZeroRateError):
            build_model(RationalMap([0.0, 0.0, 1.0]))  # f = z^2

    def test_identically_zero_raises_zero_rate(self):
        with pytest.raises(ZeroRateError):
            build_model(RationalMap([0.0]))

    @pytest.mark.parametrize("order", [0, -2])
    def test_order_below_one_refused(self, order):
        # the order is judged first: AFFINE, which has no interior fixed
        # point, gets the order's error, not a boundary model
        for f in (LINEAR, AFFINE):
            with pytest.raises(ValueError, match=f"order must be at least 1, got {order}$"):
                build_model(f, order=order)


class TestFlow:
    def test_linear_closed_form(self):
        m = build_model(LINEAR)
        for t in (0.3, 1.0, 2.5):
            for z in (0.5, -0.2 + 0.6j):
                assert m.flow(t, z) == pytest.approx(z * np.exp(-t), abs=1e-12)

    def test_time_zero_is_identity(self):
        m = build_model(QUADRATIC)
        z = 0.4 - 0.3j
        assert m.flow(0.0, z) == pytest.approx(z)

    def test_quadratic_closed_form(self):
        # h = z/(1-z), h^{-1} = w/(1+w)
        m = build_model(QUADRATIC)
        assert m.flow(np.log(2.0), 0.5) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_out_of_domain(self):
        m = build_model(LINEAR)
        with pytest.raises(OutOfDomainError):
            m.flow(1.0, 1.2)

    @pytest.mark.parametrize("t", [-0.5, np.nan, np.inf, -np.inf, [0.5, -0.5], [0.5, np.nan]])
    @pytest.mark.parametrize(
        "model", [build_model(LINEAR), build_model(AFFINE)], ids=["koenigs", "ode"]
    )
    def test_bad_time_raises(self, model, t):
        with pytest.raises(ValueError, match="flow requires a finite t"):
            model.flow(t, 0.3)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_growth_report_refuses_non_finite_time(self, t):
        # a NaN drift would pass the invariance check silently; the oracle
        # (the cocycle of B = 0) checks no times, so the refusal is flow's
        gen = CocycleGenerator.constant(np.zeros((2, 2)))

        def identity_oracle(ts, zs):
            return np.broadcast_to(np.eye(2), np.shape(ts) + np.shape(zs) + (2, 2))

        with pytest.raises(ValueError, match="flow requires a finite t"):
            growth_report(build_model(LINEAR), gen, 0.5, t_values=(t,), gamma=identity_oracle)

    @pytest.mark.parametrize("order", [12, 24, 48])
    def test_closed_form_at_every_order(self, order):
        # f = -z + 0.9 z^2 has h(z) = z/(1 - 0.9z), so
        # F_t(z) = w/(1 + 0.9w) with w = e^{-t} h(z); z = -0.88 sits at 0.79 of
        # h's radius, where F_t taken from the truncated series of h and its
        # inverse is off by 4.6e-3 at order 24, so the order must not matter
        m = build_model(RationalMap([0.0, -1.0, 0.9]), order=order)
        ts, zs = np.array([0.1, 0.5]), np.array([-0.88, 0.3])
        w = np.exp(-ts)[:, None] * zs / (1 - 0.9 * zs)
        assert np.max(np.abs(m.flow(ts, zs) - w / (1 + 0.9 * w))) <= 1e-10


class TestFlowOde:
    def test_linear(self):
        assert flow_ode(LINEAR, 1.0, 0.3) == pytest.approx(0.3 * np.exp(-1), abs=1e-11)

    def test_time_zero(self):
        assert flow_ode(QUADRATIC, 0.0, 0.2 + 0.2j) == pytest.approx(0.2 + 0.2j)

    def test_affine_boundary_point(self):
        assert flow_ode(AFFINE, 1.0, 0.0) == pytest.approx(1 - np.exp(-1), abs=1e-11)

    def test_repelling_generator_escapes(self):
        with pytest.raises(DomainEscapeError):
            flow_ode(RationalMap([0.0, 1.0]), 3.0, 0.5)

    def test_matches_the_moebius_flow_of_a_quadratic_f(self):
        # f = -z + 0.3 z^2 flows by a Moebius map (a Riccati equation); read
        # 6.6e-13 at most
        pair, _, exact = manufactured_case()
        rng = np.random.default_rng(14)
        zs = 0.7 * np.sqrt(rng.random(40)) * np.exp(2j * np.pi * rng.random(40))
        ts = np.linspace(0.0, 2.5, 11)
        reference = np.array([exact.flow(t, zs) for t in ts])
        assert np.max(np.abs(flow_ode(pair.f, ts, zs) - reference)) <= 1e-12


class TestSemigroupInvariants:
    def test_semigroup_law(self):
        for f in (LINEAR, QUADRATIC):
            m = build_model(f)
            for t, s in ((0.3, 0.7), (1.0, 0.5), (2.0, 0.25)):
                for z in (0.3, -0.2 + 0.3j, 0.45j):
                    lhs = m.flow(t + s, z)
                    rhs = m.flow(t, m.flow(s, z))
                    assert abs(lhs - rhs) <= 1e-7

    def test_schroeder_equation(self):
        # h by Newton steps on h^{-1}, as reconstruct_error takes it, solves
        # h(F_t z) = e^{-lambda t} h(z) and matches h(z) = z / (1 - c z)
        pair = koenigs_pair(0.6)
        m = build_model(pair.f)
        zs = np.array([0.35, 0.3j, -0.35, 0.2 + 0.2j])
        ts = np.array([0.4, 1.2])
        hz, settled = _koenigs_coordinate(m, zs)
        h_flow, settled_flow = _koenigs_coordinate(m, m.flow(ts, zs).ravel())
        assert settled.all() and settled_flow.all()
        assert np.max(np.abs(hz - pair.h(zs))) <= 1e-13
        rhs = np.exp(-m.rate * ts)[:, None] * hz
        assert np.max(np.abs(h_flow.reshape(rhs.shape) - rhs)) <= 1e-9

    def test_interior_decay_estimate(self):
        for f in (LINEAR, QUADRATIC):
            m = build_model(f)
            rate = m.rate.real
            for z in (0.5, 0.3 + 0.4j):
                for t in (0.5, 1.0, 3.0):
                    bound = abs(z) * np.exp(-rate * t * (1 - abs(z)) / (1 + abs(z)))
                    assert abs(m.flow(t, z)) <= bound * (1 + 1e-9)

    def test_boundary_model_flows_by_ode(self):
        m = build_model(AFFINE)
        assert not m.is_interior
        assert m.flow(1.0, 0.0) == pytest.approx(1 - np.exp(-1), abs=1e-10)


# times out of order, repeated and at 0, and points on both sides of the
# real axis; F_t on their grid against one call per time
GRID_TS = np.array([1.5, 0.0, 0.5, 3.0, 0.5])
GRID_ZS = np.array([0.2, -0.25 + 0.2j, 0.3j, -0.1])


def counting_integrations(monkeypatch):
    """Record the output times of every ``integrate`` call."""
    calls = []
    integrate_fn = integrate.integrate

    def counting(rhs, t_values, *args, **kwargs):
        calls.append(list(t_values))
        return integrate_fn(rhs, t_values, *args, **kwargs)

    monkeypatch.setattr(integrate, "integrate", counting)
    return calls


class TestFlowGrid:
    def test_outer_product_shapes(self):
        flow = build_model(QUADRATIC).flow
        assert isinstance(flow(0.5, 0.2), complex)
        assert flow(0.5, GRID_ZS).shape == (4,)
        assert flow(GRID_TS, 0.2).shape == (5,)
        assert flow(GRID_TS, GRID_ZS).shape == (5, 4)
        assert flow(GRID_TS.reshape(5, 1), GRID_ZS.reshape(2, 2)).shape == (5, 1, 2, 2)
        assert flow([], GRID_ZS).shape == (0, 4)

    @pytest.mark.parametrize("model", [build_model(AFFINE), build_model(QUADRATIC)],
                             ids=["boundary", "interior"])
    def test_ode_grid_is_one_integration(self, monkeypatch, model):
        zs = np.array([0.0, 0.85, -0.6j]) if model.is_interior else GRID_ZS
        per_time = [model.flow(float(t), zs) for t in GRID_TS]
        calls = counting_integrations(monkeypatch)
        grid = model.flow(GRID_TS, zs)
        assert calls == [[0.0, 0.0, 0.5, 1.5, 3.0]]
        assert np.max(np.abs(grid - per_time)) <= 1e-12
        assert np.array_equal(grid[1], zs)
