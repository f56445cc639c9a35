"""Linearization pipeline tests: condition checks, the recursion, the
quadrature linearizers, reconstruction, gauge freedom, sharpness."""

import importlib
import math

import numpy as np
import pytest

from cocycle_lab import algebra
from cocycle_lab.algebra import (
    ad_matrix,
    mat_exp,
    mat_inv,
    operator_norm,
    sylvester_resolve,
    unvec,
    vec,
)
from cocycle_lab.cocycle import CocycleGenerator, evolve
from cocycle_lab.demos import demo_by_name
from cocycle_lab.dynamics import RationalMap, build_model
from cocycle_lab.errors import (
    NotResonantError,
    OutsideConvergenceRegionError,
    PoleOnPathError,
    TailNotConvergingError,
)
from cocycle_lab.linearize import (
    commutative_linearize_interior,
    commutative_linearize_nofix,
    condition_check,
    conjugated_generator,
    linearize,
    reconstruct_error,
    sharpness_witness,
)
from conftest import non_normal_b0

RNG = np.random.default_rng(91)

# the package re-exports the function ``linearize`` under the module's name
linearize_module = importlib.import_module("cocycle_lab.linearize")

LINEAR_MODEL = build_model(RationalMap([0.0, -1.0]))
JORDAN = demo_by_name("jordan-obstruction")
SCALAR = demo_by_name("linear-scalar-rational")
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


def random_unitary(n):
    q, r = np.linalg.qr(RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def difference_set_orders(rep, b0, eigs):
    """The orders k <= k_bound at which k*lam lies within the resonance
    cutoff of the difference set sigma(B0) - sigma(B0), for B0 with the
    eigenvalues ``eigs``: in finite dimensions, the violated orders."""
    diffs = (eigs[:, None] - eigs[None, :]).ravel()
    orders = np.arange(1, rep.k_bound + 1)
    ad_norm = float(np.linalg.norm(ad_matrix(b0), 2))
    cutoff = algebra._cutoff(orders, rep.lam, ad_norm, algebra.RESONANCE_RTOL)[1]
    hit = np.min(np.abs(orders[:, None] * rep.lam - diffs), axis=1) <= cutoff
    return orders[hit].tolist()


class TestConditionCheck:
    def test_resonant_diagonal(self):
        rep = condition_check(np.diag([1.0, 2.0]).astype(complex), 1.0)
        assert sorted(rep.spectrum_b0.tolist(), key=abs) == [1.0, 2.0]
        assert rep.violated_k == [1]
        assert rep.k_bound == 1
        assert not rep.condition_holds

    def test_central_element(self):
        rep = condition_check(np.zeros((2, 2), dtype=complex), 1.0)
        assert rep.violated_k == []
        assert rep.k_bound == 0
        assert rep.condition_holds

    def test_half_integer_gap(self):
        alpha = 0.3 - 0.2j
        rep = condition_check(np.diag([alpha, alpha + 0.5]).astype(complex), 1.0)
        assert rep.violated_k == []
        assert rep.condition_holds

    def test_violated_within_k_bound(self):
        for _ in range(20):
            n = int(RNG.integers(2, 5))
            b0 = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
            lam = complex(0.3 + RNG.random(), 0.5 * RNG.standard_normal())
            rep = condition_check(b0, lam)
            assert all(1 <= k <= rep.k_bound for k in rep.violated_k)

    def test_routes_agree_for_separated_spectra(self):
        for _ in range(20):
            n = int(RNG.integers(2, 5))
            eigs = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            # keep pairwise differences at least 1e-3 away from the positive integers
            diffs = (eigs[:, None] - eigs[None, :]).ravel()
            ks = np.round(diffs.real).astype(int)
            bad = (
                (np.abs(diffs - ks) < 1e-3) & (ks >= 1) & (np.abs(diffs.imag) < 1e-3)
            )
            if np.any(bad):
                continue
            u = random_unitary(n)
            b0 = u @ np.diag(eigs) @ u.conj().T
            rep = condition_check(b0, 1.0)
            assert rep.violated_k == difference_set_orders(rep, b0, eigs)

    def test_requires_positive_real_rate(self):
        with pytest.raises(ValueError):
            condition_check(np.eye(2, dtype=complex), -1.0)

    def test_k_bound_covers_orders_the_floor_leaves_open(self):
        # at rtol 0.3 the floor 4 - 2.5 of order 4 does not clear the cutoff
        # 0.3 (4 + 2.5), so sylvester_resolve calls it resonant, beyond
        # ceil(||ad_B0|| / |lam|) = 3
        b0 = np.diag([0.0, 2.5]).astype(complex)
        rep = condition_check(b0, 1.0, resonance_rtol=0.3)
        assert rep.k_bound == 4
        assert rep.violated_k == [1, 2, 3, 4]
        zero = np.zeros((2, 2), dtype=complex)
        assert sylvester_resolve(4, 1.0, b0, zero, resonance_rtol=0.3).kind == "resonant_solvable"
        assert sylvester_resolve(5, 1.0, b0, zero, resonance_rtol=0.3).kind == "unique"

    def test_violated_k_holds_every_order_sylvester_resolve_calls_resonant(self):
        rng = np.random.default_rng(2417)
        for _ in range(60):
            n = int(rng.integers(1, 4))
            b0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            b0 *= rng.uniform(0.2, 3.0)
            lam = complex(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5))
            rtol = float(10 ** rng.uniform(-8, math.log10(0.6)))
            rep = condition_check(b0, lam, resonance_rtol=rtol)
            zero = np.zeros((n, n), dtype=complex)
            for k in range(1, rep.k_bound + 6):
                kind = sylvester_resolve(k, lam, b0, zero, resonance_rtol=rtol).kind
                if kind != "unique":
                    assert k in rep.violated_k, (k, rtol, rep.k_bound)

    @pytest.mark.parametrize("rtol", [-1e-3, 1.0, 2.0, float("nan")])
    def test_resonance_rtol_outside_unit_interval_refused(self, rtol):
        # the resonance rule refuses the tolerance for both of its callers.
        # Order 1 of B0 = diag(0, 0.1) has sigma_min 0.9, yet the rule at
        # rtol 2.0 would call it resonant and, with rhs = I, obstructed
        b0 = np.diag([0.0, 0.1]).astype(complex)
        for call in (
            lambda: condition_check(b0, 1.0, resonance_rtol=rtol),
            lambda: sylvester_resolve(1, 1.0, b0, np.eye(2), resonance_rtol=rtol),
        ):
            with pytest.raises(ValueError, match=r"resonance_rtol must lie in \[0, 1\)"):
                call()

    def test_builds_ad_matrix_once(self, monkeypatch, svd_counter, solve_counter):
        # k_bound and the batched resolvent share one ad_B0 and one norm; the
        # report matches a resolvent that builds its own.  A linearize call
        # also builds ad_B0 and takes its norm once, for every order it solves
        b0 = np.array([[0.2, 0.3, 0.0], [0.0, 1.2, 0.3], [0.0, 0.0, 2.7]], dtype=complex)
        calls, ad_norms = [], []
        norm = np.linalg.norm

        def counting(b):
            calls.append(1)
            return ad_matrix(b)

        def counting_norm(a, ord=None, *args, **kwargs):
            if ord == 2 and np.shape(a) == (9, 9):
                ad_norms.append(1)
            return norm(a, ord, *args, **kwargs)

        monkeypatch.setattr(algebra, "ad_matrix", counting)
        monkeypatch.setattr(linearize_module, "ad_matrix", counting)
        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        rep = condition_check(b0, 1.0)
        assert len(calls) == len(ad_norms) == 1
        # order 1 is resonant and takes the one full 9 x 9 SVD; the Schur
        # form takes one full SVD each of sizes 3 and 2; every other order is
        # a column sweep, with no 9 x 9 solve or inverse
        out = linearize(LINEAR_MODEL, CocycleGenerator.constant(b0), order=12)
        assert out.status == "resonant_solvable"
        assert len(calls) == len(ad_norms) == 2
        assert svd_counter.full[9] == len(out.violated_k) == 1
        assert (svd_counter.full[3], svd_counter.full[2]) == (1, 1)
        assert solve_counter.by_size[9] == 0
        monkeypatch.undo()
        orders = np.arange(1, rep.k_bound + 1)
        ad = ad_matrix(b0)
        res = algebra._resolvent(
            orders, 1.0, ad, np.linalg.norm(ad, 2), algebra.RESONANCE_RTOL, vectors=False
        )
        assert rep.k_bound >= 3
        assert rep.smallest_singular_values == res.sv[:, -1].tolist()
        assert rep.violated_k == orders[res.resonant].tolist() == [1]


class TestConjugatedGenerator:
    def test_identity_koenigs(self):
        b = conjugated_generator(LINEAR_MODEL, JORDAN.generator, 8)
        assert np.allclose(b.coeffs[0], np.diag([1.0, 2.0]))
        assert np.allclose(b.coeffs[1], E12)
        assert np.allclose(b.coeffs[2:], 0.0)

    def test_constant_generator(self):
        gen = CocycleGenerator.constant(np.array([[0.3, 0.1], [0.0, -0.5]]))
        b = conjugated_generator(LINEAR_MODEL, gen, 10)
        assert np.allclose(b.coeffs[0], gen(0.0))
        assert np.allclose(b.coeffs[1:], 0.0)

    def test_nontrivial_koenigs_inverse(self):
        # B(z) = diag(0, z) conjugated through h^{-1}(w) = w/(1+w)
        model = build_model(RationalMap([0.0, -1.0, 1.0]))
        num = np.zeros((2, 2, 2), dtype=complex)
        num[1] = np.diag([0.0, 1.0])
        b = conjugated_generator(model, CocycleGenerator(num), 6)
        for k in range(1, 6):
            assert np.allclose(
                b.coeffs[k], np.diag([0.0, (-1.0) ** (k - 1)]), atol=1e-12
            )


class TestLinearize:
    def test_jordan_obstructed_at_one(self):
        out = linearize(LINEAR_MODEL, JORDAN.generator)
        assert out.status == "obstructed"
        assert out.obstructed_at == 1
        assert out.violated_k == [1]
        assert out.m.coeffs.shape[0] == 1  # truncated before the failing order
        assert out.radius_estimate == 0.0

    def test_resonant_solvable_coefficient(self):
        entry = demo_by_name("resonant-solvable")
        out = linearize(LINEAR_MODEL, entry.generator)
        assert out.status == "resonant_solvable"
        assert out.violated_k == [1]
        assert np.allclose(out.m.coeffs[1], [[0.0, 0.0], [0.5, 0.0]], atol=1e-12)
        assert out.radius_estimate == 0.0
        # resonant chains carry no uniform resolvent bound
        assert out.diagnostics["C1"] == math.inf

    def test_resonant_polynomial_transfer_map_reconstructs(self):
        # the resonant demo's transfer map is exactly I + z E21 / 2
        entry = demo_by_name("resonant-solvable")
        out = linearize(LINEAR_MODEL, entry.generator)
        assert np.allclose(out.m.coeffs[2:], 0.0, atol=1e-12)
        for t in (0.5, 1.5):
            for z in (0.4, -0.3 + 0.2j):
                m_z = out.m.evaluate(LINEAR_MODEL.koenigs.evaluate(z))
                m_ftz = out.m.evaluate(np.exp(-t) * z)
                recon = mat_inv(m_ftz) @ mat_exp(t * out.b0) @ m_z
                assert operator_norm(recon - entry.oracle(t, z)) <= 1e-12

    def test_diagonal_gap_linearizable(self):
        gen = CocycleGenerator(
            np.stack([np.diag([0.25, 0.75]), np.diag([1.0, 0.0])]).astype(complex)
        )
        out = linearize(LINEAR_MODEL, gen)
        assert out.status == "linearizable"
        assert np.allclose(out.m.coeffs[1], np.diag([1.0, 0.0]), atol=1e-12)

    def test_scalar_rational_transfer_map(self):
        out = linearize(LINEAR_MODEL, SCALAR.generator)
        assert out.status == "linearizable"
        assert np.allclose(out.m.coeffs[:, 0, 0], 1.0)
        assert out.radius_estimate == pytest.approx(0.5)

    def test_recursion_residual(self):
        for _ in range(10):
            n = int(RNG.integers(1, 4))
            coeffs = 0.4 * (
                RNG.standard_normal((3, n, n)) + 1j * RNG.standard_normal((3, n, n))
            )
            coeffs[0] += np.diag(0.2 * RNG.standard_normal(n))
            gen = CocycleGenerator(coeffs)
            out = linearize(LINEAR_MODEL, gen, order=16)
            if out.status == "obstructed":
                continue
            b = conjugated_generator(LINEAR_MODEL, gen, 16)
            lam = LINEAR_MODEL.rate
            b0 = b.coeffs[0]
            for k in range(1, out.m.coeffs.shape[0]):
                mk = out.m.coeffs[k]
                rhs = sum(out.m.coeffs[l] @ b.coeffs[k - l] for l in range(k))
                res = operator_norm(k * lam * mk - (mk @ b0 - b0 @ mk) - rhs)
                assert res <= 1e-9

    def test_coefficient_growth_bound(self):
        # the certificate ||m_k|| <= ((C3+1)/r)^k from ||b_k|| <= C2 / r^k
        for _ in range(10):
            n = int(RNG.integers(2, 4))
            eigs = 0.4 * RNG.random(n) + 0.3j * RNG.standard_normal(n)
            u = random_unitary(n)
            b0 = u @ np.diag(eigs) @ u.conj().T
            coeffs = np.stack(
                [
                    b0,
                    0.5 * (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))),
                    0.5 * (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))),
                ]
            )
            gen = CocycleGenerator(coeffs)
            out = linearize(LINEAR_MODEL, gen, order=20)
            assert out.status == "linearizable"
            d = out.diagnostics
            assert out.radius_estimate == d["r"] / (d["C3"] + 1.0)
            b = conjugated_generator(LINEAR_MODEL, gen, 20).coeffs
            for k in range(1, b.shape[0]):
                assert operator_norm(b[k]) <= d["C2"] * d["r"] ** -k * (1 + 1e-12)
            growth = (d["C3"] + 1.0) / d["r"]
            for k in range(out.m.coeffs.shape[0]):
                assert operator_norm(out.m.coeffs[k]) <= growth**k * (1 + 1e-9)

    def test_certified_radius_does_not_shrink_with_the_order(self):
        # f = -z + 0.3 z^2, B0 = diag(0, 0.45): a least-squares fit of r
        # certified 0.134 at order 12 and 0.010 at order 64
        rng = np.random.default_rng(0)
        b1, b2 = (0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
                  for _ in range(2))
        gen = CocycleGenerator(np.stack([np.diag([0.0, 0.45]).astype(complex), b1, b2]))
        f = RationalMap([0.0, -1.0, 0.3])
        radii = [linearize(build_model(f, order=n), gen, order=n).radius_estimate
                 for n in (12, 24, 40, 64)]
        assert radii[0] >= 0.37
        assert radii == pytest.approx([radii[0]] * 4, rel=1e-12)

    def test_tail_ratio_without_radius_power(self):
        # B = 0.5 / (1 - 1e-5 z): the radius is 6.7e4, and radius^64 overflows
        gen = CocycleGenerator.scalar([0.5], [1.0, -1e-5])
        out = linearize(build_model(RationalMap([0.0, -1.0]), order=64), gen, order=64)
        assert out.status == "linearizable"
        assert out.radius_estimate > 1e4
        assert 0.0 <= out.diagnostics["tail_ratio"] <= 1.0

    def test_coboundary_detection(self):
        # B(0) = 0 <=> coboundary status
        gen = CocycleGenerator.scalar([0.0, 0.3], [1.0, 0.3])  # 0.3 z / (1 + 0.3 z)
        out = linearize(LINEAR_MODEL, gen)
        assert out.status == "coboundary"
        assert operator_norm(out.b0) <= 1e-10
        shifted = CocycleGenerator.scalar([0.2, 0.3], [1.0, 0.3])
        assert linearize(LINEAR_MODEL, shifted).status == "linearizable"

    def test_near_resonance_flagged(self):
        b0 = np.diag([0.0, 1.0 + 5e-5]).astype(complex)
        gen = CocycleGenerator(np.stack([b0, 0.1 * E12]))
        out = linearize(LINEAR_MODEL, gen)
        assert out.status == "linearizable"
        assert 1 in out.diagnostics["near_resonant_k"]
        assert out.diagnostics["C1"] > 1e3


class TestReconstruction:
    def test_diagonal_demo(self):
        entry = demo_by_name("diagonal-linearizable")
        model = entry.model()
        out = linearize(model, entry.generator)
        samples = [(t, z) for t in (0.0, 0.5, 1.0, 2.0) for z in (0.25, -0.2 + 0.1j, 0.2j)]
        err = reconstruct_error(
            model, entry.generator, out, samples, guard_radius=min(out.radius_estimate, 0.6)
        )
        assert err <= 1e-6

    def test_beta_power_closed_form(self):
        entry = demo_by_name("beta-power")
        model = entry.model()
        out = linearize(model, entry.generator)
        assert out.status == "linearizable"
        assert out.b0[0, 0] == pytest.approx(-0.5, abs=1e-12)
        # transfer map is exactly 1 + c z
        assert out.m.coeffs[1, 0, 0] == pytest.approx(0.3, abs=1e-10)
        assert np.allclose(out.m.coeffs[2:], 0.0, atol=1e-10)
        err = reconstruct_error(
            model, entry.generator, out, [(0.7, 0.3), (1.5, -0.2j)], guard_radius=0.6
        )
        assert err <= 1e-8

    def test_one_integration_for_the_whole_sample_grid(self, monkeypatch):
        entry = demo_by_name("diagonal-linearizable")
        model = entry.model()
        out = linearize(model, entry.generator)
        calls = []
        evolve_grid = linearize_module.evolve_grid

        def counting(model, B, ts, zs, **kwargs):
            calls.append((list(ts), list(zs)))
            return evolve_grid(model, B, ts, zs, **kwargs)

        monkeypatch.setattr(linearize_module, "evolve_grid", counting)
        samples = [(t, z) for t in (1.5, 0.5) for z in (0.2, 0.1 + 0.1j)]
        err = reconstruct_error(model, entry.generator, out, samples, guard_radius=0.6)
        assert err <= 1e-6
        # the sample times as they come, the distinct points once each
        assert calls == [([1.5, 1.5, 0.5, 0.5], [0.1 + 0.1j, 0.2])]

    def test_guard_region_enforced(self):
        out = linearize(LINEAR_MODEL, SCALAR.generator)
        with pytest.raises(OutsideConvergenceRegionError):
            reconstruct_error(LINEAR_MODEL, SCALAR.generator, out, [(0.5, 0.9)])

    def test_no_samples_refused(self):
        out = linearize(LINEAR_MODEL, SCALAR.generator)
        with pytest.raises(ValueError, match="at least one sample"):
            reconstruct_error(LINEAR_MODEL, SCALAR.generator, out, [])

    def test_gauge_covariance(self):
        # conjugating (M, B0) by any invertible A leaves the cocycle unchanged
        entry = demo_by_name("diagonal-linearizable")
        model = entry.model()
        out = linearize(model, entry.generator)
        a = np.array([[1.2, 0.4 - 0.2j], [0.1j, 0.9]], dtype=complex)
        b0_t = a @ out.b0 @ mat_inv(a)
        for t, z in ((0.6, 0.25), (1.2, -0.2 + 0.1j)):
            hz = model.koenigs.evaluate(z)
            wt = np.exp(-model.rate * t) * hz
            m_z, m_ftz = out.m.evaluate(hz), out.m.evaluate(wt)
            plain = mat_inv(m_ftz) @ mat_exp(t * out.b0) @ m_z
            gauged = mat_inv(a @ m_ftz) @ mat_exp(t * b0_t) @ (a @ m_z)
            assert operator_norm(plain - gauged) <= 1e-8


class TestCommutativeInterior:
    def test_constant_generator(self):
        gen = CocycleGenerator.scalar([0.7])
        assert commutative_linearize_interior(LINEAR_MODEL, gen, 0.4) == pytest.approx(1.0)

    def test_matches_series_pipeline(self):
        out = linearize(LINEAR_MODEL, SCALAR.generator)
        m_series = out.m.evaluate(LINEAR_MODEL.koenigs.evaluate(0.3))[0, 0]
        m_quad = commutative_linearize_interior(LINEAR_MODEL, SCALAR.generator, 0.3)
        assert abs(m_series - m_quad) <= 1e-6
        assert m_quad == pytest.approx(1.0 / 0.7, abs=1e-7)

    def test_normalization_at_fixed_point(self):
        assert commutative_linearize_interior(LINEAR_MODEL, SCALAR.generator, 0.0) == 1.0

    def test_rejects_expanding_rate(self):
        model = build_model(RationalMap([0.0, 1.0]), order=2)
        gen = CocycleGenerator.scalar([0.5])
        with pytest.raises(TailNotConvergingError):
            commutative_linearize_interior(model, gen, 0.3)

    def test_plain_callable_off_center_matches_series(self):
        # f = (0.3 - z)(1 - 0.3 z) puts z0 at 0.3; B = 1/(2 - z) reaches the
        # segment integral as a plain callable, without ``taylor``, and the
        # first point sits 1e-3 from the removable singularity at z0
        model = build_model(RationalMap([0.3, -1.09, 0.3]))
        out = linearize(model, CocycleGenerator.scalar([1.0], [2.0, -1.0]))
        assert model.z0 == pytest.approx(0.3) and out.status == "linearizable"

        def plain(u):
            return (1.0 / (2.0 - np.asarray(u, dtype=complex)))[..., None, None]

        for z in (model.z0 + 1e-3, 0.1, 0.3 + 0.25j, -0.5, 0.9j):
            hz = model.koenigs.evaluate(z)
            assert abs(z - model.z0) <= model.koenigs_radius
            assert abs(hz) <= 0.8 * out.radius_estimate
            m_series = out.m.evaluate(hz)[0, 0]
            assert abs(commutative_linearize_interior(model, plain, z) - m_series) <= 1e-8


class TestCommutativeNoFix:
    AFFINE = RationalMap([1.0, -1.0])

    def test_zero_generator(self):
        gen = CocycleGenerator.scalar([0.0])
        assert commutative_linearize_nofix(self.AFFINE, gen, 0.4) == pytest.approx(1.0)

    def test_affine_closed_form(self):
        gen = CocycleGenerator.scalar([1.0], [1.0, -1.0])
        for z in (0.0, 0.3, -0.2 + 0.4j):
            out = commutative_linearize_nofix(self.AFFINE, gen, z)
            assert out == pytest.approx(np.exp(1.0 - 1.0 / (1.0 - z)), abs=1e-9)

    def test_constant_integrand(self):
        c = 0.8 - 0.3j
        gen = CocycleGenerator.scalar([c, -c])  # c (1 - z)
        z = 0.35 + 0.1j
        out = commutative_linearize_nofix(self.AFFINE, gen, z)
        assert out == pytest.approx(np.exp(-c * z), abs=1e-10)

    def test_pole_on_path(self):
        f = RationalMap([-0.25, 1.0])  # vanishes at 0.25
        gen = CocycleGenerator.scalar([1.0])
        with pytest.raises(PoleOnPathError):
            commutative_linearize_nofix(f, gen, 0.5)


class TestSharpnessWitness:
    def test_jordan_structure(self):
        b0 = np.diag([1.0, 2.0]).astype(complex)
        gen = sharpness_witness(b0, 1.0, 1)
        direction = gen.num[1]
        assert abs(direction[0, 1]) == pytest.approx(1.0, abs=1e-12)
        assert operator_norm(direction - direction[0, 1] * E12) <= 1e-12
        out = linearize(LINEAR_MODEL, gen)
        assert out.status == "obstructed"
        assert out.obstructed_at == 1

    def test_gap_three(self):
        b0 = np.diag([0.0, 3.0]).astype(complex)
        gen = sharpness_witness(b0, 1.0, 3)
        out = linearize(LINEAR_MODEL, gen)
        assert out.status == "obstructed"
        assert out.obstructed_at == 3

    def test_not_resonant(self):
        with pytest.raises(NotResonantError):
            sharpness_witness(np.zeros((2, 2), dtype=complex), 1.0, 1)


def test_complex_rate_spiral_semigroup():
    # spiral flow: the resonance lattice k*lam leaves the real axis
    lam = 1 + 0.5j
    model = build_model(RationalMap([0.0, -lam]))
    assert model.rate == pytest.approx(lam)
    z = 0.4
    assert model.flow(1.2, z) == pytest.approx(z * np.exp(-lam * 1.2), abs=1e-12)

    resonant = np.diag([0.1, 0.1 + 2 * lam]).astype(complex)
    rep = condition_check(resonant, lam)
    assert rep.violated_k == [2]
    assert rep.violated_k == difference_set_orders(rep, resonant, np.diagonal(resonant))
    witness = sharpness_witness(resonant, lam, 2)
    out = linearize(model, witness)
    assert out.status == "obstructed" and out.obstructed_at == 2

    clear = np.diag([0.2, 0.6 + 0.2j]).astype(complex)
    gen = CocycleGenerator(
        np.stack([clear, 0.3 * np.array([[0.5, 1.0], [0.4, -0.2]], dtype=complex)])
    )
    outcome = linearize(model, gen)
    assert outcome.status == "linearizable"
    guard = min(outcome.radius_estimate, 0.4)
    samples = [
        (t, 0.7 * guard * np.exp(2j * np.pi * a / 3))
        for t in (0.5, 1.3)
        for a in range(3)
    ]
    err = reconstruct_error(model, gen, outcome, samples, guard_radius=guard)
    assert err <= 1e-6


def test_series_pipeline_requires_interior_fixed_point():
    from cocycle_lab.dynamics import build_boundary_model

    boundary = build_boundary_model(RationalMap([1.0, -1.0]))
    with pytest.raises(ValueError):
        linearize(boundary, SCALAR.generator)
    with pytest.raises(ValueError):
        conjugated_generator(boundary, SCALAR.generator, 8)


def test_obstructed_outcome_cannot_reconstruct():
    out = linearize(LINEAR_MODEL, JORDAN.generator)
    with pytest.raises(ValueError):
        reconstruct_error(LINEAR_MODEL, JORDAN.generator, out, [(0.5, 0.1)])


def test_round_trip_with_shifted_fixed_point():
    # everything above is centered at 0; exercise z0 != 0 end to end
    model = build_model(RationalMap([0.2, -1.0]))  # f(z) = 0.2 - z
    assert model.z0 == pytest.approx(0.2)
    num = np.zeros((2, 2, 2), dtype=complex)
    num[0] = np.diag([0.3, 0.65])
    num[1] = np.array([[0.2, 0.5], [0.1, -0.3]])
    gen = CocycleGenerator(num)
    b = conjugated_generator(model, gen, 8)
    assert np.allclose(b.coeffs[0], gen(0.2))
    out = linearize(model, gen)
    assert out.status == "linearizable"
    guard = min(out.radius_estimate, 0.4)
    samples = [
        (t, 0.2 + 0.7 * guard * np.exp(2j * np.pi * a / 3))
        for t in (0.5, 1.2)
        for a in range(3)
    ]
    err = reconstruct_error(model, gen, out, samples, guard_radius=guard)
    assert err <= 1e-6


def test_round_trip_with_nontrivial_koenigs():
    # reconstruction through h(z) = z/(1-z) exercises the conjugation path
    model = build_model(RationalMap([0.0, -1.0, 1.0]), order=32)
    coeffs = np.stack(
        [np.diag([0.2, -0.1]).astype(complex), 0.3 * np.array([[0.5, 1.0], [-0.3, 0.2]])]
    )
    gen = CocycleGenerator(coeffs)
    out = linearize(model, gen, order=32)
    assert out.status == "linearizable"
    samples = [(t, z) for t in (0.5, 1.0) for z in (0.1, -0.08 + 0.05j)]
    err = reconstruct_error(model, gen, out, samples, guard_radius=min(out.radius_estimate, 0.4))
    assert err <= 1e-5


def kronecker_recursion(model, gen, order, tol=1e-10):
    """Brute-force m_k, each from the n^2 x n^2 system k lam - ad_B0: a direct
    solve where sigma_min clears the resonance cutoff, else the SVD
    pseudo-inverse with its defect test.
    Returns (m, sigma_min at each order, the obstructed order or None)."""
    b = conjugated_generator(model, gen, order).coeffs
    n, lam = b.shape[1], model.rate
    ad = ad_matrix(b[0])
    ad_norm = np.linalg.norm(ad, 2)
    m, sigmas = [np.eye(n, dtype=complex)], []
    for k in range(1, order + 1):
        lhs = k * lam * np.eye(n * n) - ad
        rhs = vec(sum(m[l] @ b[k - l] for l in range(k)))
        cutoff = algebra.RESONANCE_RTOL * (abs(k * lam) + ad_norm)
        sigmas.append(np.linalg.svd(lhs, compute_uv=False)[-1])
        if sigmas[-1] > cutoff:
            x = np.linalg.solve(lhs, rhs)
        else:
            u, sv, vh = np.linalg.svd(lhs)
            inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cutoff)
            x = vh.conj().T @ (inv_sv * (u.conj().T @ rhs))
            if np.linalg.norm(lhs @ x - rhs) > tol * max(1.0, np.linalg.norm(rhs)):
                return np.array(m), sigmas, k
        m.append(unvec(x, n))
    return np.array(m), sigmas, None


def assert_m_close(got, expected, rtol=1e-12):
    """Each coefficient within rtol of the brute-force one, relative to the
    largest coefficient after m_0 (some coefficients are exactly 0)."""
    assert got.shape == expected.shape
    norms = np.linalg.norm(expected, axis=(1, 2))
    scale = norms[1:].max(initial=norms[0])
    assert np.max(np.linalg.norm(got - expected, axis=(1, 2))) <= rtol * scale


def similar_to(eig, rng):
    """A matrix with eigenvalues ``eig`` in a random basis near the unit one,
    and that basis change (s, s^-1)."""
    n = len(eig)
    s = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    s_inv = np.linalg.inv(s)
    return s @ np.diag(eig) @ s_inv, s, s_inv


def witness_case(n):
    """The sharpness witness at order 2 for a B0 similar to diag(0.1, 2.1),
    and, for n > 2, further eigenvalues off every resonance."""
    eig = np.concatenate([[0.1, 2.1], 0.35 + 0.2j * np.arange(n - 2)])
    return sharpness_witness(similar_to(eig, np.random.default_rng(n))[0], 1.0, 2)


def resonant_chain_case(n):
    """A B0 similar to diag(0, 1, ...) with lam = 1 resonant at order 1 only,
    and a B1 whose (0, 1) entry in the eigenbasis is 0, so every order solves."""
    rng = np.random.default_rng(n)
    eig = np.concatenate([[0.0, 1.0], 0.35 + 0.2j * np.arange(n - 2)])
    b0, s, s_inv = similar_to(eig, rng)
    c = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    c[0, 1] = 0.0
    return CocycleGenerator(np.stack([b0, s @ c @ s_inv]))


def generic_case(n):
    """B0 similar to a random diagonal off every resonance, two more terms."""
    rng = np.random.default_rng(n)
    eig = rng.uniform(0.1, 0.9, n) + 1j * rng.uniform(-0.2, 0.2, n)
    num = np.empty((3, n, n), dtype=complex)
    num[0] = similar_to(eig, rng)[0]
    num[1:] = 0.3 * (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))) / n
    return CocycleGenerator(num)


@pytest.mark.parametrize(
    "case, n, status",
    [
        ("generic", 2, "linearizable"),
        ("generic", 4, "linearizable"),
        ("witness", 2, "obstructed"),
        ("witness", 4, "obstructed"),
        ("resonant", 2, "resonant_solvable"),
        ("resonant", 4, "resonant_solvable"),
        ("non-normal", 16, "linearizable"),
    ],
)
def test_schur_recursion_matches_kronecker_recursion(case, n, status):
    # f = -z (1 - c z) with |c| = 0.6, as in the benchmark's linearize tasks;
    # the n = 16 case is B0 = U (D + N) U^H with N scale 0.5.  (At N scale 2,
    # kappa(V) = 1.7e8 and C1 = 3.3e3, the two recursions differ by 6.6e-13:
    # the conditioning of the problem, not a defect of either solve.)
    model = build_model(RationalMap([0.0, -1.0, 0.6j]), order=32)
    if case == "non-normal":
        gen = CocycleGenerator(non_normal_b0(n, 0.5)[1])
    else:
        gen = {"generic": generic_case, "witness": witness_case,
               "resonant": resonant_chain_case}[case](n)
    out = linearize(model, gen, order=32)
    m, sigmas, obstructed_at = kronecker_recursion(model, gen, 32)
    assert out.status == status
    assert out.obstructed_at == obstructed_at
    assert out.violated_k == ([2] if case == "witness" else [1] if case == "resonant" else [])
    assert_m_close(out.m.coeffs, m)
    if status == "linearizable":
        assert out.diagnostics["C1"] == pytest.approx(1.0 / min(sigmas), rel=1e-12)


# Work-counter gate: SVDs with singular vectors in one order-64 linearize of
# a generic 4x4 generator.  Only the orders in violated_k take the full
# n^2-sized factorization; every other order is a column sweep in the Schur
# basis of B0, whose deflation takes one full SVD of each size n ... 2.
# Measured: 0 full 16x16 SVDs (65 when every order took one), and no 16x16
# solve or inverse at any order (64 when every order took an LU solve): each
# order inverts its n triangular 4x4 blocks in one batched call.
def test_full_svds_only_at_orders_that_may_resonate(svd_counter, solve_counter):
    rng = np.random.default_rng(64)
    n = 4
    s = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / 2
    eig = rng.uniform(0.1, 0.9, n) + 1j * rng.uniform(-0.2, 0.2, n)
    num = np.empty((3, n, n), dtype=complex)
    num[0] = s @ np.diag(eig) @ np.linalg.inv(s)
    num[1:] = 0.3 * (rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n))) / n
    model = build_model(RationalMap([0.0, -1.0, 0.5]), order=64)
    inverses = solve_counter.by_size[n]
    out = linearize(model, CocycleGenerator(num), order=64)
    assert out.status == "linearizable"
    assert svd_counter.full[n * n] == len(out.violated_k) == 0
    assert [svd_counter.full[size] for size in (4, 3, 2)] == [1, 1, 1]
    assert solve_counter.by_size[n * n] == 0
    assert solve_counter.by_size[n] - inverses == 64


# Work-counter gate on a 16x16 generator at order 64 (f = -z + 0.3 z^2, B0
# diagonal).  Orders up to k_bound (here order 1 alone) take sigma_min from
# condition_check's batch; beyond it C1 needs sigma_min(k lam - ad_B0) only at
# orders whose bound 1 / (|k lam| - ||ad_B0||) tops the running max: here
# none.  Measured: 1 256x256 SVD, the batch, against a bound of 1 (65 when
# every order took sigma_min; 2 if order 1 took its own besides the batch),
# and no 256x256 solve or inverse.  The 16x16 SVDs are the batch of ||b_k||,
# the norm of the last m_k and the first deflation step of the Schur form: 3
# (67 when every order took the spectral norm of its matrix-form residual).
def test_large_svds_only_where_c1_may_rise(svd_counter, solve_counter):
    n, order = 16, 64
    rng = np.random.default_rng(0)
    num = np.zeros((2, n, n), dtype=complex)
    num[0] = np.diag(rng.uniform(0.1, 0.4, n) + 0.3j * rng.uniform(-1.0, 1.0, n))
    num[1] = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    gen = CocycleGenerator(num)
    model = build_model(RationalMap([0.0, -1.0, 0.3]), order=order)
    out = linearize(model, gen, order=order)
    assert out.status == "linearizable"
    assert svd_counter.by_size[n * n] <= 1
    assert svd_counter.by_size[n] <= 3
    assert solve_counter.by_size[n * n] == 0

    m, sigmas, _ = kronecker_recursion(model, gen, order)
    assert out.diagnostics["C1"] == pytest.approx(1.0 / min(sigmas), rel=1e-14, abs=0.0)
    assert_m_close(out.m.coeffs, m)
