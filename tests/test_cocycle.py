"""Evolution solver, axiom checks, generator extraction, growth analysis."""

import numpy as np
import pytest

from cocycle_lab.algebra import mat_exp, operator_norm
from cocycle_lab.cocycle import (
    CocycleGenerator,
    boundedness_classify,
    check_axioms,
    evolve,
    evolve_grid,
    extract_generator,
    extract_generator_auto,
    growth_report,
    make_evolve_oracle,
    spatial_derivative_check,
)
from cocycle_lab.demos import demo_by_name
from cocycle_lab.dynamics import RationalMap, build_model
from cocycle_lab.errors import (
    DomainEscapeError,
    NotInvariantError,
    SamplePointIsFixedPointError,
    VNotInvertibleError,
)

RNG = np.random.default_rng(424242)

LINEAR_MODEL = build_model(RationalMap([0.0, -1.0]))
JORDAN = demo_by_name("jordan-obstruction")
SCALAR = demo_by_name("linear-scalar-rational")
SQRT = demo_by_name("sqrt-nonexp")


class CountingGridOracle:
    """A closed-form cocycle behind a ``grid`` method that records the times
    of each call."""

    def __init__(self, gamma):
        self.gamma = gamma
        self.grid_times = []

    def __call__(self, t, z):
        return self.gamma(t, z)

    def grid(self, t_values, z_values):
        self.grid_times.append([float(t) for t in t_values])
        return np.array([[self.gamma(t, z) for z in z_values] for t in t_values])


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

    @pytest.mark.parametrize("den", [[1.0, -2.0], [1.0, 0.0, 4.0], [0.0, 1.0]])
    def test_pole_inside_disk_refused(self, den):
        # poles at 0.5, at +-0.5i and at 0
        with pytest.raises(ValueError, match="pole inside the unit disk"):
            CocycleGenerator.scalar([1.0], den)

    @pytest.mark.parametrize("den", [[1.0, -1.0], [1.0, 0.0, 1.0], [1.0, -0.5]])
    def test_pole_on_or_outside_circle_accepted(self, den):
        # poles at 1, at +-i and at 2
        g = CocycleGenerator.scalar([1.0], den)
        assert np.isfinite(g(0.5)[0, 0])


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


class TestCheckAxioms:
    def test_jordan_oracle_passes(self):
        rep = check_axioms(
            LINEAR_MODEL, JORDAN.oracle, [0.4, 1.1], [0.3, -0.2 + 0.4j], tol=1e-7
        )
        assert rep.passed
        assert rep.chain_residual <= 1e-10
        assert rep.min_singular_value > 0.3

    def test_trivial_cocycle(self):
        def ident(t, z):
            return np.eye(2, dtype=complex)

        rep = check_axioms(LINEAR_MODEL, ident, [0.5, 1.0], [0.2, 0.4j])
        assert rep.chain_residual == 0.0
        assert rep.identity_residual == 0.0

    def test_corrupted_oracle_flagged(self):
        def corrupted(t, z):
            g = JORDAN.oracle(t, z).copy()
            g[0, 0] += t * t
            return g

        rep = check_axioms(LINEAR_MODEL, corrupted, [0.5, 1.0], [0.3], tol=1e-7)
        assert not rep.passed
        assert rep.chain_residual > 1e-3

    @pytest.mark.parametrize("ts", [[0.4, 1.1], [1.1, 0.2, 0.7, 0.4]])
    def test_one_grid_call_per_part(self, ts):
        # Gamma at 0 and ts, Gamma at ts over every F_s(z), Gamma at the sums
        oracle = CountingGridOracle(JORDAN.oracle)
        rep = check_axioms(LINEAR_MODEL, oracle, ts, [0.3, -0.2 + 0.4j], tol=1e-7)
        assert rep.passed
        assert len(oracle.grid_times) == 3

    def test_matches_per_pair_loop(self):
        ts, zs = [0.4, 0.7, 1.1], np.array([0.3, -0.2 + 0.4j])
        gamma = JORDAN.oracle
        chain, min_sv = 0.0, np.inf
        for s in ts:
            fs = LINEAR_MODEL.flow(s, zs)
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

        def oracle(t, z):
            return mat_exp(t * b0)

        out = extract_generator(oracle, JORDAN.f, 0.2 + 0.3j)
        assert operator_norm(out - b0) <= 1e-12 * operator_norm(b0)

    def test_one_grid_call(self):
        oracle = CountingGridOracle(JORDAN.oracle)
        extract_generator(oracle, JORDAN.f, 0.5, t0=0.1)
        [times] = oracle.grid_times
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

    def test_singular_average_retries(self):
        # exp(t b0) with b0 = 20 pi i makes V(0.1, z) exactly singular
        b0 = np.array([[20j * np.pi]])

        def oracle(t, z):
            return np.array([[np.exp(20j * np.pi * t)]])

        with pytest.raises(VNotInvertibleError):
            extract_generator(oracle, LINEAR_MODEL.f, 0.2, t0=0.1)
        out = extract_generator_auto(oracle, LINEAR_MODEL.f, 0.2, t0=0.1)
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
        # f = -z(1 - 2z) pushes part of the circle |z| = 0.6 outward
        model = build_model(RationalMap([0.0, -1.0, 2.0]))
        with pytest.raises(NotInvariantError):
            growth_report(model, SCALAR.generator, 0.6, t_values=(0.25,))

    def test_disk_must_fit_in_unit_disk(self):
        with pytest.raises(ValueError):
            growth_report(LINEAR_MODEL, SCALAR.generator, 1.1, t_values=(0.5,))

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
        def ident(t, z):
            return np.eye(1, dtype=complex)

        fit = boundedness_classify(ident, [0.5, 1.0, 2.0], [0.1, 0.5j])
        assert fit.kind == "bounded"
        assert fit.m_const == pytest.approx(1.0)
        assert fit.rate == pytest.approx(0.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)


def test_chain_rule_of_evolve_output():
    # semicocycle property of the solver itself, not of a closed form
    gen = JORDAN.generator
    t, s, z = 0.7, 0.4, 0.3 - 0.2j
    g_sum = evolve(LINEAR_MODEL, gen, t + s, z, tol=1e-12)
    g_s = evolve(LINEAR_MODEL, gen, s, z, tol=1e-12)
    fs = LINEAR_MODEL.flow(s, z)
    g_t = evolve(LINEAR_MODEL, gen, t, fs, tol=1e-12)
    assert operator_norm(g_sum - g_t @ g_s) <= 1e-10
