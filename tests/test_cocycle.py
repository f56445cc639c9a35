"""Evolution solver, axiom checks, generator extraction, growth analysis."""

import re

import numpy as np
import pytest

from cocycle_lab import cocycle as cocycle_module
from cocycle_lab import integrate
from cocycle_lab.algebra import mat_exp, operator_norm
from cocycle_lab.cocycle import (
    CocycleGenerator,
    boundedness_classify,
    check_axioms,
    evolve,
    evolve_grid,
    extract_generator,
    extract_generator_auto,
    gamma_grid,
    growth_report,
    make_evolve_oracle,
    spatial_derivative_check,
)
from cocycle_lab.demos import demo_by_name
from cocycle_lab.dynamics import RationalMap, SemigroupModel, _disk_guard, build_model
from cocycle_lab.errors import (
    DomainEscapeError,
    NotInvariantError,
    SamplePointIsFixedPointError,
    VNotInvertibleError,
)
from cocycle_lab.series import horner

RNG = np.random.default_rng(424242)

LINEAR_MODEL = build_model(RationalMap([0.0, -1.0]))
JORDAN = demo_by_name("jordan-obstruction")
SCALAR = demo_by_name("linear-scalar-rational")
SQRT = demo_by_name("sqrt-nonexp")


class CountingOracle:
    """An oracle that records the times of each call."""

    def __init__(self, gamma):
        self.gamma = gamma
        self.call_times = []

    def __call__(self, t, z):
        self.call_times.append(np.atleast_1d(t).tolist())
        return self.gamma(t, z)


def z_independent(of_t):
    """Oracle with outer-product axes from ``of_t``, which maps broadcasting
    times to matrices on trailing (n, n) axes."""

    def gamma(t, z):
        t = np.asarray(t, dtype=float)
        g = np.asarray(of_t(t.reshape(t.shape + (1,) * np.ndim(z))))
        return np.broadcast_to(g, t.shape + np.shape(z) + g.shape[-2:])

    return gamma


def _of_b_and_f(dens):
    """(constructor, den) rows for 1 / den as B (ids den0, den1, ...) and as
    f (ids f-den0, f-den1, ...)."""
    return [
        pytest.param(make, den, id=f"{tag}den{i}")
        for tag, make in (("", CocycleGenerator.scalar), ("f-", RationalMap))
        for i, den in enumerate(dens)
    ]


class TestCocycleGenerator:
    def test_evaluation(self):
        g = JORDAN.generator
        z = 0.4 + 0.2j
        assert np.allclose(g(z), [[1.0, z], [0.0, 2.0]])

    def test_batch_evaluation(self):
        g = JORDAN.generator
        zs = np.array([0.1, 0.2j, -0.3])
        out = g(zs)
        assert out.shape == (3, 2, 2)
        assert np.allclose(out[2, 0, 1], -0.3)

    def test_rational_taylor(self):
        g = CocycleGenerator.scalar([1.0], [1.0, -1.0])  # 1/(1-z)
        s = g.taylor(0.0, 6)
        assert np.allclose(s.coeffs[:, 0, 0], 1.0)
        shifted = g.taylor(0.5, 4)
        assert np.allclose(shifted.coeffs[0, 0, 0], 2.0)

    def test_matrix_taylor_shift(self):
        s = JORDAN.generator.taylor(0.3, 3)
        assert np.allclose(s.coeffs[0], [[1.0, 0.3], [0.0, 2.0]])
        assert np.allclose(s.coeffs[1], [[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(s.coeffs[2], 0.0)

    @pytest.mark.parametrize("den", [[1.0], [2.0 - 0.5j]])
    def test_constant_denominator_is_bit_identical_to_horner(self, den):
        zs = np.array([0.3 + 0.1j, -0.5, 0.2j, 0.0, 0.7 - 0.6j])
        rng = np.random.default_rng(7)
        num = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        gen = CocycleGenerator(num, den)
        f = RationalMap([0.1, -1.0, 0.3 + 0.2j], den)
        for z in (zs, zs[0]):
            assert np.array_equal(gen(z), horner(gen.num, z) / horner(gen.den, z)[..., None, None])
            assert np.array_equal(f(z), horner(f.num, z) / horner(f.den, z))

    def test_unit_denominator_matches_the_division_but_for_a_zero_sign(self):
        # a polynomial map no longer divides by den = [1]: every value equals
        # the quotient, and a bit pattern differs only where a part is zero
        zs = np.array([0.3 + 0.1j, -0.5, 0.2j, 0.0, complex(-0.0, 0.5), 0.7 - 0.6j])
        rng = np.random.default_rng(11)
        num = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        num[:, 0, 1] = 0.0
        maps = (CocycleGenerator(num), RationalMap([0.0, -1.0, 0.3j]), RationalMap([0.0, 1j]))
        for m in maps:
            for z in (zs, zs[4]):
                value, quotient = m(z), horner(m.num, z) / (1.0 + 0.0j)
                assert np.array_equal(value, quotient)
                parts, quotient_parts = np.atleast_1d(value).view(float), np.atleast_1d(quotient).view(float)
                moved = parts.view(np.int64) != quotient_parts.view(np.int64)
                assert np.all(parts[moved] == 0.0)
        # a -0.0 real part stays -0.0 where the division made it +0.0
        negative_zero = CocycleGenerator.constant([[complex(-0.0, 1.0)]])
        assert np.signbit(negative_zero(zs).real).all()
        assert not np.signbit((horner(negative_zero.num, zs) / (1.0 + 0.0j)).real).any()

    @pytest.mark.parametrize("make, den", _of_b_and_f([[1.0, -2.0], [1.0, 0.0, 4.0], [0.0, 1.0]]))
    def test_pole_inside_disk_refused(self, make, den):
        # poles at 0.5, at +-0.5i and at 0
        with pytest.raises(ValueError, match="pole inside the unit disk"):
            make([1.0], den)

    @pytest.mark.parametrize("make, den", _of_b_and_f([[1.0, -1.0], [1.0, 0.0, 1.0], [1.0, -0.5]]))
    def test_pole_on_or_outside_circle_accepted(self, make, den):
        # poles at 1, at +-i and at 2
        g = make([1.0], den)
        assert np.all(np.isfinite(g(0.5)))


class TestEvolve:
    def test_jordan_closed_form(self):
        ts = [0.5, 1.0, 3.0]
        zs = np.array([0.5, -0.8, 0.3 + 0.4j])
        vals = evolve_grid(LINEAR_MODEL, JORDAN.generator, ts, zs, tol=1e-12)
        for i, t in enumerate(ts):
            for j, z in enumerate(zs):
                assert operator_norm(vals[i, j] - JORDAN.oracle(t, z)) <= 1e-8

    def test_scalar_rational_closed_form(self):
        out = evolve(LINEAR_MODEL, SCALAR.generator, 1.0, 0.3, tol=1e-12)
        assert abs(out[0, 0] - (np.e - 0.3) / 0.7) <= 1e-10

    def test_constant_generator_is_z_independent(self):
        b0 = np.array([[0.3, 1.0], [0.0, -0.2j]], dtype=complex)
        gen = CocycleGenerator.constant(b0)
        g1 = evolve(LINEAR_MODEL, gen, 1.3, 0.5)
        g2 = evolve(LINEAR_MODEL, gen, 1.3, -0.4j)
        target = mat_exp(1.3 * b0)
        assert operator_norm(g1 - target) <= 1e-9
        assert operator_norm(g2 - target) <= 1e-9

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_per_point_matmul_reference(self, n):
        # both sides of the size up to which B(u) G is broadcast with the
        # point axis last, at unordered and repeated times and from no point
        # to many
        assert 1 <= cocycle_module._BROADCAST_MAX_DIM < 5
        rng = np.random.default_rng(n)
        num = 0.4 * (rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n)))
        B = CocycleGenerator(num, [1.0, -0.3])
        model = build_model(RationalMap([0.0, -1.0, 0.2]))
        ts = (1.0, 0.4, 0.0, 1.0, 0.7)
        for m in (0, 1, 7, 64):
            zs = 0.6 * np.sqrt(rng.random(m)) * np.exp(2j * np.pi * rng.random(m))

            def rhs(_t, y, m=m):
                u, g = y[:m], y[m:].reshape(m, n, n)
                bu = B(u)
                products = [np.matmul(bu[p], g[p]) for p in range(m)]
                return np.concatenate([model.f(u), np.ravel(products)])

            y0 = np.concatenate([zs, np.tile(np.eye(n, dtype=complex).ravel(), m)])
            states = integrate.integrate_at(rhs, ts, y0, tol=1e-11, guard=_disk_guard(m))
            reference = states[:, m:].reshape(len(ts), m, n, n)
            out = evolve_grid(model, B, ts, zs)
            assert out.shape == (len(ts), m, n, n)
            scale = np.max(np.abs(reference), initial=0.0)
            assert np.max(np.abs(out - reference), initial=0.0) <= 1e-13 * scale

    def test_invalid_generator_escapes(self):
        repelling = build_model(RationalMap([0.0, 1.0]), order=2)
        gen = CocycleGenerator.constant(np.array([[0.5]]))
        with pytest.raises(DomainEscapeError):
            evolve(repelling, gen, 3.0, 0.5)

    def test_generator_of_wrong_shape_refused(self):
        # B must map m points to (m, n, n); this one ignores the batch
        def per_point_only(z):
            return np.array([[1.0 + np.sum(z)]])

        with pytest.raises(ValueError, match="shape"):
            evolve_grid(LINEAR_MODEL, per_point_only, [0.5], [0.1, 0.2])


class TestOracleProtocol:
    def test_scalar_only_oracle_refused(self):
        # oracles written for one (t, z) pair
        def scalar_only(t, z):
            return np.array([[np.exp(t)]])

        def ident(t, z):
            return np.eye(2, dtype=complex)

        with pytest.raises(ValueError, match=re.escape("returned shape (1, 1, 3) for 3 times")):
            gamma_grid(scalar_only, [0.1, 0.2, 0.3], [0.1, 0.2j])
        # check_axioms' first call asks for 0, the two times and their four sums
        with pytest.raises(ValueError, match=re.escape("returned shape (2, 2) for 7 times")):
            check_axioms(LINEAR_MODEL, ident, [0.5, 1.0], [0.3])

    def test_evolve_oracle_has_outer_product_axes(self):
        oracle = make_evolve_oracle(LINEAR_MODEL, JORDAN.generator)
        ts, zs = [0.5, 1.0], np.array([0.3, -0.2j, 0.1])
        grid = oracle(ts, zs)
        assert grid.shape == (2, 3, 2, 2)
        assert np.array_equal(grid, evolve_grid(LINEAR_MODEL, JORDAN.generator, ts, zs))
        assert np.array_equal(oracle(1.0, 0.3), evolve(LINEAR_MODEL, JORDAN.generator, 1.0, 0.3))
        assert oracle(ts, []).shape == (2, 0, 2, 2)

    def test_evolve_oracle_is_one_evolve_grid_call(self, monkeypatch):
        calls = []
        evolve = cocycle_module.evolve_grid

        def counting(model, B, ts, zs, **kwargs):
            calls.append((list(ts), list(zs)))
            return evolve(model, B, ts, zs, **kwargs)

        monkeypatch.setattr(cocycle_module, "evolve_grid", counting)
        oracle = make_evolve_oracle(LINEAR_MODEL, JORDAN.generator)
        assert oracle([[1.0, 0.5], [1.0, 0.0]], [0.3, -0.2j]).shape == (2, 2, 2, 2, 2)
        assert calls == [([1.0, 0.5, 1.0, 0.0], [0.3, -0.2j])]

    def test_evolve_oracle_takes_times_in_any_order(self):
        oracle = make_evolve_oracle(LINEAR_MODEL, JORDAN.generator)
        zs = np.array([0.3, -0.2j])
        ascending = oracle([0.5, 1.0, 2.0], zs)
        assert np.array_equal(oracle([2.0, 1.0, 0.5], zs), ascending[::-1])
        assert np.array_equal(oracle([1.0, 0.5, 1.0], zs), oracle([0.5, 1.0], zs)[[1, 0, 1]])
        with pytest.raises(ValueError, match="nonnegative"):
            oracle([1.0, -0.5], zs)
        with pytest.raises(ValueError, match="times must be finite"):
            oracle([1.0, float("nan")], zs)


class TestCheckAxioms:
    def test_jordan_oracle_passes(self):
        rep = check_axioms(
            LINEAR_MODEL, JORDAN.oracle, [0.4, 1.1], [0.3, -0.2 + 0.4j], tol=1e-7
        )
        assert rep.passed
        assert rep.chain_residual <= 1e-10
        assert rep.min_singular_value > 0.3

    def test_trivial_cocycle(self):
        ident = z_independent(lambda t: np.eye(2, dtype=complex))
        rep = check_axioms(LINEAR_MODEL, ident, [0.5, 1.0], [0.2, 0.4j])
        assert rep.chain_residual == 0.0
        assert rep.identity_residual == 0.0

    def test_corrupted_oracle_flagged(self):
        def corrupted(t, z):
            g = JORDAN.oracle(t, z).copy()
            t = np.reshape(t, np.shape(t) + (1,) * np.ndim(z))
            g[..., 0, 0] += t * t
            return g

        rep = check_axioms(LINEAR_MODEL, corrupted, [0.5, 1.0], [0.3], tol=1e-7)
        assert not rep.passed
        assert rep.chain_residual > 1e-3

    @pytest.mark.parametrize("ts", [[0.4, 1.1], [1.1, 0.2, 0.7, 0.4]])
    def test_one_grid_call_per_part(self, ts):
        # Gamma at 0, at ts and at the sums t + s in [t, s] order, then Gamma
        # at ts over every F_s(z); repeated times are left to the oracle
        oracle = CountingOracle(JORDAN.oracle)
        rep = check_axioms(LINEAR_MODEL, oracle, ts, [0.3, -0.2 + 0.4j], tol=1e-7)
        assert rep.passed
        assert oracle.call_times == [[0.0] + ts + [t + s for t in ts for s in ts], ts]

    def test_no_points_refused(self, monkeypatch):
        def no_flow(*args, **kw):
            raise AssertionError("flow called")

        monkeypatch.setattr(SemigroupModel, "flow", no_flow)
        oracle = CountingOracle(JORDAN.oracle)
        with pytest.raises(ValueError, match="at least one point"):
            check_axioms(LINEAR_MODEL, oracle, [0.4, 1.1], [])
        assert oracle.call_times == []

    def test_matches_per_pair_loop(self):
        ts, zs = [0.4, 0.7, 1.1], np.array([0.3, -0.2 + 0.4j])
        gamma = JORDAN.oracle
        chain, min_sv = 0.0, np.inf
        # F_s from one integration over every s, as check_axioms takes it
        for s, fs in zip(ts, LINEAR_MODEL.flow(ts, zs)):
            for t in ts:
                for z, fz in zip(zs, fs):
                    lhs = gamma(t + s, z)
                    chain = max(chain, operator_norm(lhs - gamma(t, fz) @ gamma(s, z)))
                    min_sv = min(min_sv, np.linalg.svd(lhs, compute_uv=False)[-1])
        rep = check_axioms(LINEAR_MODEL, gamma, ts, zs)
        assert (rep.chain_residual, rep.min_singular_value) == (chain, min_sv)


class TestSpatialDerivative:
    def test_jordan(self):
        res = spatial_derivative_check(LINEAR_MODEL, JORDAN.generator, 1.0, 0.4)
        assert res <= 1e-6

    def test_constant_generator(self):
        gen = CocycleGenerator.constant(np.array([[0.2, 1.0], [0.0, 0.5]]))
        res = spatial_derivative_check(LINEAR_MODEL, gen, 0.7, 0.3)
        assert res <= 1e-7

    def test_scalar_rational(self):
        res = spatial_derivative_check(
            LINEAR_MODEL, SCALAR.generator, 0.5, 0.3, gamma=SCALAR.oracle
        )
        assert res <= 1e-6

    def test_fixed_point_rejected(self):
        with pytest.raises(SamplePointIsFixedPointError):
            spatial_derivative_check(LINEAR_MODEL, JORDAN.generator, 1.0, 0.0)

    def test_non_rational_generator(self):
        # callable (square-root) generator with its closed-form cocycle
        res = spatial_derivative_check(
            LINEAR_MODEL, SQRT.generator, 0.8, 0.35, gamma=SQRT.oracle
        )
        assert res <= 1e-10


class TestExtractGenerator:
    def test_jordan_closed_form(self):
        out = extract_generator(JORDAN.oracle, JORDAN.f, 0.5)
        assert operator_norm(out - np.array([[1.0, 0.5], [0.0, 2.0]])) <= 1e-6

    @pytest.mark.parametrize("scale", [1.0, 60.0])
    def test_constant_cocycle(self, scale):
        b0 = scale * np.array([[0.4, 0.3], [-0.1, 1.2]], dtype=complex)

        oracle = z_independent(
            lambda t: np.array([mat_exp(s * b0) for s in t.ravel()]).reshape(t.shape + (2, 2))
        )
        out = extract_generator(oracle, JORDAN.f, 0.2 + 0.3j)
        assert operator_norm(out - b0) <= 1e-12 * operator_norm(b0)

    def test_one_grid_call(self):
        oracle = CountingOracle(JORDAN.oracle)
        extract_generator(oracle, JORDAN.f, 0.5, t0=0.1)
        [times] = oracle.call_times
        assert len(times) == 17 and times[-1] == 0.1
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_sqrt_demo_generator_value(self):
        z = 0.5
        out = extract_generator(SQRT.oracle, SQRT.f, z)
        root = np.sqrt(1 - z)
        expected = 1 + z / (2 * root * (1 + root))
        assert abs(out[0, 0] - expected) <= 1e-6

    def test_round_trip_random_polynomials(self):
        for _ in range(5):
            n = int(RNG.integers(1, 4))
            deg = int(RNG.integers(0, 4))
            coeffs = 0.5 * (
                RNG.standard_normal((deg + 1, n, n))
                + 1j * RNG.standard_normal((deg + 1, n, n))
            )
            gen = CocycleGenerator(coeffs)
            oracle = make_evolve_oracle(LINEAR_MODEL, gen, tol=1e-12)
            z = complex(0.4 * RNG.standard_normal() + 0.3j * RNG.standard_normal())
            out = extract_generator(oracle, LINEAR_MODEL.f, z)
            assert operator_norm(out - gen(z)) <= 1e-6

    def test_one_svd_of_v(self, svd_counter):
        # the invertibility test's SVD is the only one; B(z) is one solve with V
        out = extract_generator(JORDAN.oracle, JORDAN.f, 0.5)
        assert svd_counter.by_size[2] == 1
        assert operator_norm(out - np.array([[1.0, 0.5], [0.0, 2.0]])) <= 1e-6

    def test_singular_average_retries(self):
        # exp(t b0) with b0 = 20 pi i makes V(0.1, z) exactly singular
        b0 = np.array([[20j * np.pi]])

        oracle = z_independent(lambda t: np.exp(20j * np.pi * t)[..., None, None])
        with pytest.raises(VNotInvertibleError):
            extract_generator(oracle, LINEAR_MODEL.f, 0.2, t0=0.1)
        out = extract_generator_auto(oracle, LINEAR_MODEL.f, 0.2)
        assert abs(out[0, 0] - b0[0, 0]) <= 1e-6


class TestGrowthReport:
    def test_scalar_rational_rate(self):
        rep = growth_report(LINEAR_MODEL, SCALAR.generator, 0.5, gamma=SCALAR.oracle)
        assert rep.k_mu == pytest.approx(2.0, abs=1e-9)
        assert rep.max_violation == 0.0

    def test_zero_generator(self):
        gen = CocycleGenerator.constant(np.zeros((2, 2)))
        rep = growth_report(LINEAR_MODEL, gen, 0.5, t_values=(0.5, 1.0))
        assert rep.k_mu == pytest.approx(0.0, abs=1e-12)
        for (_t, _z, g_norm, _b, _v) in rep.samples:
            assert g_norm == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_demo_rate_blows_up(self):
        small = growth_report(
            LINEAR_MODEL, SQRT.generator, 0.9, t_values=(0.5,), gamma=SQRT.oracle
        )
        large = growth_report(
            LINEAR_MODEL, SQRT.generator, 0.999, t_values=(0.5,), gamma=SQRT.oracle
        )
        assert large.k_mu > 10.0
        assert large.k_mu > small.k_mu

    def test_non_invariant_disk_rejected(self):
        # f = (0.5 - z)(1 - 0.5z)(0.2 + i) turns the flow around z0 = 0.5, so
        # part of the circle |z - 0.5| = 0.4 moves outward (by 5.4e-3 at t = 0.25)
        model = build_model(RationalMap(np.convolve([0.5, -1.0], [1.0, -0.5]) * (0.2 + 1j)))
        with pytest.raises(NotInvariantError):
            growth_report(model, SCALAR.generator, 0.4, t_values=(0.25,))

    def test_non_invariance_names_the_first_time_given(self):
        # the drift is 2.1e-3 at t = 0.1 and 5.4e-3 at t = 0.25
        model = build_model(RationalMap(np.convolve([0.5, -1.0], [1.0, -0.5]) * (0.2 + 1j)))
        with pytest.raises(NotInvariantError, match=r"by 5\.43e-03 at t = 0\.25$"):
            growth_report(model, SCALAR.generator, 0.4, t_values=(0.0, 0.25, 0.1))

    def test_one_flow_call_for_every_time(self, monkeypatch):
        # growth's invariance flow runs at the Gamma oracle's tol, the axiom
        # check's at flow_ode's default
        calls = []
        flow = SemigroupModel.flow

        def counting(self, t, z, **kw):
            calls.append((np.shape(t) + np.shape(z), kw))
            return flow(self, t, z, **kw)

        monkeypatch.setattr(SemigroupModel, "flow", counting)
        growth_report(LINEAR_MODEL, SCALAR.generator, 0.4, gamma=SCALAR.oracle)
        check_axioms(LINEAR_MODEL, SCALAR.oracle, [0.4, 0.9, 0.2], [0.3, 0.1j])
        assert calls == [((5, 16), {"tol": 1e-10}), ((3, 2), {})]

    def test_disk_must_fit_in_unit_disk(self):
        with pytest.raises(ValueError):
            growth_report(LINEAR_MODEL, SCALAR.generator, 1.1, t_values=(0.5,))

    @pytest.mark.parametrize("r", [-0.5, 0.0, float("inf"), float("nan")])
    def test_radius_must_be_positive_and_finite(self, r):
        with pytest.raises(ValueError, match="positive finite radius"):
            growth_report(LINEAR_MODEL, SCALAR.generator, r, gamma=SCALAR.oracle)

    def test_no_times_refused(self):
        oracle = CountingOracle(SCALAR.oracle)
        with pytest.raises(ValueError, match="at least one time"):
            growth_report(LINEAR_MODEL, SCALAR.generator, 0.5, t_values=(), gamma=oracle)
        assert oracle.call_times == []

    def test_gamma_is_the_only_oracle_choice(self):
        rep = growth_report(LINEAR_MODEL, SCALAR.generator, 0.4, gamma=SCALAR.oracle)
        assert set(rep.as_dict()) == {"radius", "k_mu", "max_violation", "samples"}
        with pytest.raises(TypeError):
            growth_report(LINEAR_MODEL, SCALAR.generator, 0.4, ode_tol=1e-10)

    def test_csv_schema(self, tmp_path):
        rep = growth_report(LINEAR_MODEL, SCALAR.generator, 0.4, gamma=SCALAR.oracle)
        path = tmp_path / "growth.csv"
        rep.write_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "t,z_re,z_im,gamma_norm,bound,violation"


class TestBoundednessClassify:
    def test_scalar_rational_bounded_on_disk(self):
        ring = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        fit = boundedness_classify(SCALAR.oracle, [0.5, 1.0, 2.0, 3.0], ring)
        assert fit.kind == "bounded"
        assert fit.residual < 0.2

    def test_affine_unbounded_along_trajectory(self):
        affine = demo_by_name("affine-scalar")
        traj = [1 - np.exp(-s) for s in (0.0, 1.0, 2.0, 3.0)]
        fit = boundedness_classify(affine.oracle, [0.5, 1.0, 2.0, 3.0], traj)
        assert fit.kind == "unbounded"

    def test_identity_cocycle(self):
        ident = z_independent(lambda t: np.eye(1, dtype=complex))
        fit = boundedness_classify(ident, [0.5, 1.0, 2.0], [0.1, 0.5j])
        assert fit.kind == "bounded"
        assert fit.m_const == pytest.approx(1.0)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("times", [[], [1.0], [1.0, 1.0]])
    def test_fewer_than_two_distinct_times_refused(self, times):
        oracle = CountingOracle(SCALAR.oracle)
        with pytest.raises(ValueError, match="two distinct times"):
            boundedness_classify(oracle, times, [0.3, 0.5j])
        assert oracle.call_times == []


def test_chain_rule_of_evolve_output():
    # semicocycle property of the solver itself, not of a closed form
    gen = JORDAN.generator
    t, s, z = 0.7, 0.4, 0.3 - 0.2j
    g_sum = evolve(LINEAR_MODEL, gen, t + s, z, tol=1e-12)
    g_s = evolve(LINEAR_MODEL, gen, s, z, tol=1e-12)
    fs = LINEAR_MODEL.flow(s, z)
    g_t = evolve(LINEAR_MODEL, gen, t, fs, tol=1e-12)
    assert operator_norm(g_sum - g_t @ g_s) <= 1e-10
