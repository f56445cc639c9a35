"""Semigroup model tests: fixed points, Koenigs series, flow evaluation."""

import numpy as np
import pytest

from cocycle_lab import integrate
from cocycle_lab.cocycle import CocycleGenerator, growth_report
from cocycle_lab.dynamics import (
    RationalMap,
    build_boundary_model,
    build_model,
    flow_ode,
)
from cocycle_lab.errors import (
    DomainEscapeError,
    NoInteriorFixedPointError,
    OutOfDomainError,
    ZeroRateError,
)

RNG = np.random.default_rng(5150)

LINEAR = RationalMap([0.0, -1.0])         # f(z) = -z
QUADRATIC = RationalMap([0.0, -1.0, 1.0])  # f(z) = z^2 - z
AFFINE = RationalMap([1.0, -1.0])          # f(z) = 1 - z


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
        assert np.allclose(m.koenigs.coeffs[2:], 0.0)
        assert m.koenigs.coeffs[1] == pytest.approx(1.0)

    def test_quadratic_koenigs_is_geometric(self):
        # h' (z^2 - z) = -h forces every coefficient to 1: h(z) = z/(1-z)
        m = build_model(QUADRATIC)
        assert np.allclose(m.koenigs.coeffs[1:], 1.0)
        assert m.rate == pytest.approx(1.0)

    def test_rescaled_linear(self):
        m = build_model(RationalMap([0.0, -2.0]))
        assert m.rate == pytest.approx(2.0)
        assert np.allclose(m.koenigs.coeffs[2:], 0.0)

    def test_fixed_point_residual(self):
        f = RationalMap([0.03, -1.0, 0.4])
        m = build_model(f)
        assert abs(f(m.z0)) <= 1e-12

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
        # the Koenigs coefficients grow like (1/(1 - tau))^k, far above the
        # linear one that revert divides by; only the build is pinned here
        m = build_model(RationalMap(np.convolve([tau, -1.0], [1.0, -tau])), order=order)
        assert m.z0 == pytest.approx(tau, abs=1e-14)
        assert m.rate == pytest.approx(1.0 - tau**2, abs=1e-13)
        assert np.max(np.abs(m.koenigs.coeffs)) > 1e15

    def test_schroeder_recursion_matches_the_term_by_term_sum(self):
        # a rational f has a Taylor term at every order, so each order of
        # the recursion sums over every j
        f = RationalMap([0.05, -1.0, 0.3 + 0.2j], [1.0, -0.4j, 0.1])
        order = 64
        m = build_model(f, order=order)
        f_c = f.taylor(m.z0, order + 1).coeffs
        assert np.all(f_c[2:] != 0.0)
        h = np.zeros(order + 1, dtype=complex)
        h[1] = 1.0
        for k in range(2, order + 1):
            h[k] = sum(j * h[j] * f_c[k + 1 - j] for j in range(1, k)) / (m.rate * (k - 1))
        assert np.allclose(m.koenigs.coeffs, h, rtol=1e-14, atol=0.0)

    def test_boundary_generator_raises(self):
        with pytest.raises(NoInteriorFixedPointError):
            build_model(AFFINE)

    def test_zero_rate_raises(self):
        with pytest.raises(ZeroRateError):
            build_model(RationalMap([0.0, 0.0, 1.0]))  # f = z^2

    def test_identically_zero_raises_zero_rate(self):
        with pytest.raises(ZeroRateError):
            build_model(RationalMap([0.0]))


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
        "model", [build_model(LINEAR), build_boundary_model(AFFINE)], ids=["koenigs", "ode"]
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
        m = build_model(QUADRATIC)
        guard = 0.5 * m.koenigs_radius
        for z in (guard * 0.9, guard * 0.7j, -guard * 0.5):
            hz = m.koenigs.evaluate(z)
            for t in (0.4, 1.2):
                lhs = m.koenigs.evaluate(m.flow(t, z))
                assert abs(lhs - np.exp(-m.rate * t) * hz) <= 1e-9

    def test_interior_decay_estimate(self):
        for f in (LINEAR, QUADRATIC):
            m = build_model(f)
            rate = m.rate.real
            for z in (0.5, 0.3 + 0.4j):
                for t in (0.5, 1.0, 3.0):
                    bound = abs(z) * np.exp(-rate * t * (1 - abs(z)) / (1 + abs(z)))
                    assert abs(m.flow(t, z)) <= bound * (1 + 1e-9)

    def test_boundary_model_flows_by_ode(self):
        m = build_boundary_model(AFFINE)
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

    @pytest.mark.parametrize("model", [build_boundary_model(AFFINE), build_model(QUADRATIC)],
                             ids=["boundary", "interior"])
    def test_ode_grid_is_one_integration(self, monkeypatch, model):
        zs = np.array([0.0, 0.85, -0.6j]) if model.is_interior else GRID_ZS
        per_time = [model.flow(float(t), zs) for t in GRID_TS]
        calls = counting_integrations(monkeypatch)
        grid = model.flow(GRID_TS, zs)
        assert calls == [[0.0, 0.0, 0.5, 1.5, 3.0]]
        assert np.max(np.abs(grid - per_time)) <= 1e-12
        assert np.array_equal(grid[1], zs)
