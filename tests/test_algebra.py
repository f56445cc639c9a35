"""Matrix kernel tests: fixed examples plus randomized invariant suites."""

import math

import numpy as np
import pytest

from cocycle_lab.algebra import (
    RESONANCE_RTOL,
    _resolvent,
    ad_matrix,
    eigenvalues,
    log_norm,
    mat_exp,
    mat_inv,
    operator_norm,
    sylvester_resolve,
    unvec,
    vec,
)
from cocycle_lab.errors import SingularMatrixError

RNG = np.random.default_rng(20240811)


def random_matrix(n, scale=1.0):
    return scale * (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))


def match_multisets(a, b, tol):
    """Greedy closest-pair matching of two complex multisets."""
    a = list(a)
    b = list(b)
    assert len(a) == len(b)
    worst = 0.0
    while a:
        dists = [(abs(x - y), i, j) for i, x in enumerate(a) for j, y in enumerate(b)]
        d, i, j = min(dists)
        worst = max(worst, d)
        a.pop(i)
        b.pop(j)
    assert worst <= tol, f"multiset mismatch {worst:.3e}"


class TestMatInv:
    def test_identity(self):
        assert np.allclose(mat_inv(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        out = mat_inv(np.diag([2.0, 4.0]).astype(complex))
        assert np.allclose(out, np.diag([0.5, 0.25]))

    def test_unipotent(self):
        out = mat_inv(np.array([[1, 1], [0, 1]], dtype=complex))
        assert np.allclose(out, [[1, -1], [0, 1]])

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            mat_inv(np.array([[1, 1], [1, 1]], dtype=complex))

    def test_random_suite(self):
        for _ in range(25):
            n = int(RNG.integers(1, 7))
            a = random_matrix(n)
            if np.linalg.svd(a, compute_uv=False)[-1] < 1e-8:
                continue
            res = operator_norm(a @ mat_inv(a) - np.eye(n))
            assert res <= 1e-10 * max(1.0, operator_norm(a))


class TestMatExp:
    def test_zero(self):
        assert np.allclose(mat_exp(np.zeros((3, 3), dtype=complex)), np.eye(3))

    def test_diagonal(self):
        out = mat_exp(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(out, np.diag([np.e, np.e**2]), rtol=1e-13)

    def test_matches_cocycle_at_fixed_point(self):
        # the Jordan-block example evaluated at z = 0 is exactly exp(t B0)
        from cocycle_lab.demos import demo_by_name

        entry = demo_by_name("jordan-obstruction")
        out = mat_exp(1.0 * np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(out, entry.oracle(1.0, 0.0), rtol=1e-12)

    def test_commuting_addition(self):
        for _ in range(10):
            n = int(RNG.integers(2, 5))
            a = random_matrix(n)
            a *= 2.0 / operator_norm(a)
            b = 0.25 * (a @ a) + 0.5 * a + 0.3 * np.eye(n)
            lhs = mat_exp(a + b)
            rhs = mat_exp(a) @ mat_exp(b)
            assert operator_norm(lhs - rhs) <= 1e-10 * operator_norm(lhs)

    def test_accuracy_up_to_norm_ten(self):
        # normal matrices give an exact unitary-diagonalization reference
        for _ in range(10):
            n = int(RNG.integers(2, 6))
            h = random_matrix(n)
            q = np.linalg.qr(h)[0]
            eigs = 10.0 * (RNG.random(n) - 0.5) + 5j * RNG.standard_normal(n)
            a = q @ np.diag(eigs) @ q.conj().T
            a *= min(1.0, 10.0 / operator_norm(a))
            scaled = q.conj().T @ a @ q
            reference = q @ np.diag(np.exp(np.diag(scaled))) @ q.conj().T
            rel = operator_norm(mat_exp(a) - reference) / operator_norm(reference)
            assert rel <= 1e-12


class TestNorms:
    def test_operator_norm_examples(self):
        assert operator_norm(np.eye(4, dtype=complex)) == pytest.approx(1.0)
        assert operator_norm(np.diag([1.0, -3.0]).astype(complex)) == pytest.approx(3.0)
        assert operator_norm(np.array([[0, 2], [0, 0]], dtype=complex)) == pytest.approx(2.0)

    def test_log_norm_examples(self):
        alpha = 0.7 - 1.3j
        assert log_norm(np.array([[alpha]])) == pytest.approx(alpha.real)
        assert log_norm(np.zeros((2, 2), dtype=complex)) == pytest.approx(0.0)
        assert log_norm(np.diag([1.0, 2.0]).astype(complex)) == pytest.approx(2.0)

    @pytest.mark.parametrize("norm", [log_norm, operator_norm], ids=lambda fn: fn.__name__)
    def test_log_norm_of_stack_matches_each_matrix(self, norm):
        rng = np.random.default_rng(3)
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        values = norm(stack)
        assert values.shape == (5,)
        assert values.tolist() == [norm(m) for m in stack]
        stack[2, 0, 1] = np.inf
        with pytest.raises(ValueError):
            norm(stack)

    def test_log_norm_is_difference_quotient_limit(self):
        # Richardson extrapolation of (||I + t a|| - 1)/t toward t -> 0+
        for _ in range(10):
            a = random_matrix(int(RNG.integers(1, 5)))

            def quotient(t):
                return (operator_norm(np.eye(a.shape[0]) + t * a) - 1.0) / t

            t1, t2 = 1e-4, 1e-5
            extrapolated = (t1 * quotient(t2) - t2 * quotient(t1)) / (t1 - t2)
            assert abs(extrapolated - log_norm(a)) <= 1e-5


class TestEigenvalues:
    def test_examples(self):
        match_multisets(eigenvalues(np.diag([1.0, 2.0]).astype(complex)), [1, 2], 1e-12)
        match_multisets(eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex)), [0, 0], 1e-7)
        match_multisets(eigenvalues(np.array([[0, -1], [1, 0]], dtype=complex)), [1j, -1j], 1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenvalues(np.eye(33, dtype=complex))

    def test_eigenpair_residual(self):
        for _ in range(10):
            n = int(RNG.integers(2, 6))
            a = random_matrix(n)
            vals, vecs = np.linalg.eig(a)
            for mu, v in zip(vals, vecs.T):
                res = np.linalg.norm(a @ v - mu * v) / operator_norm(a)
                assert res <= 1e-8


class TestAdMatrix:
    def test_zero_and_identity_are_central(self):
        assert np.allclose(ad_matrix(np.zeros((2, 2), dtype=complex)), 0.0)
        assert np.allclose(ad_matrix(np.eye(3, dtype=complex)), 0.0)

    def test_basis_action(self):
        # (m b0 - b0 m) on E_12 picks up b0_22 - b0_11
        b0 = np.diag([1.0, 2.0]).astype(complex)
        e12 = np.array([[0, 1], [0, 0]], dtype=complex)
        ad = ad_matrix(b0)
        out = (ad @ e12.flatten(order="F")).reshape(2, 2, order="F")
        assert np.allclose(out, 1.0 * e12)

    def test_spectrum_is_difference_multiset(self):
        for _ in range(50):
            n = int(RNG.integers(1, 5))
            b0 = random_matrix(n)
            mus = eigenvalues(b0)
            diffs = (mus[:, None] - mus[None, :]).ravel()
            match_multisets(eigenvalues(ad_matrix(b0)), diffs, 1e-6)


class TestSylvesterResolve:
    def test_obstructed_off_diagonal(self):
        b0 = np.diag([1.0, 2.0]).astype(complex)
        out = sylvester_resolve(1, 1.0, b0, np.array([[0, 1], [0, 0]], dtype=complex))
        assert out.kind == "obstructed"
        assert out.solution is None
        assert out.residual > 0.5

    def test_resonant_solvable_minimum_norm(self):
        # range-compatible right-hand side; the free (1,2) entry stays zero
        b0 = np.diag([1.0, 2.0]).astype(complex)
        b11, b21, b22 = 0.4 - 0.1j, 1.0 + 0.2j, -0.7
        rhs = np.array([[b11, 0.0], [b21, b22]], dtype=complex)
        out = sylvester_resolve(1, 1.0, b0, rhs)
        assert out.kind == "resonant_solvable"
        expected = np.array([[b11, 0.0], [b21 / 2.0, b22]], dtype=complex)
        assert np.allclose(out.solution, expected, atol=1e-12)
        assert abs(out.solution[0, 1]) <= 1e-14

    def test_commuting_case_scales(self):
        rhs = np.array([[0.3, -1.0], [2.0, 0.5j]], dtype=complex)
        out = sylvester_resolve(3, 1.0, np.zeros((2, 2), dtype=complex), rhs)
        assert out.kind == "unique"
        assert np.allclose(out.solution, rhs / 3.0)

    @pytest.mark.parametrize("kind", ["unique", "resonant_solvable", "obstructed"])
    def test_residual_is_frobenius_defect(self, kind):
        # residual against references built apart from the factored system:
        # the matrix-form residual of the returned m, or the defect of the
        # least-squares solution of the explicit Kronecker system
        if kind == "unique":
            k, lam, b0, rhs = 3, complex(0.7, 0.4), random_matrix(3), random_matrix(3)
        else:
            # k lam = 1 meets the eigenvalue differences at (1, 2) and (2, 3)
            k, lam, b0 = 1, 1.0, np.diag([1.0, 2.0, 3.0]).astype(complex)
            c = 1.0 if kind == "obstructed" else 0.0
            rhs = np.array([[0.4, c, 0.2], [1.0, -0.7, c], [0.3, 0.5j, 0.1]])
        out = sylvester_resolve(k, lam, b0, rhs)
        assert out.kind == kind
        bar = 1e-12 * max(1.0, np.linalg.norm(rhs))
        if kind == "obstructed":
            ident = np.eye(b0.shape[0])
            lhs = k * lam * np.eye(b0.size) - (np.kron(b0.T, ident) - np.kron(ident, b0))
            flat = rhs.flatten(order="F")
            x = np.linalg.lstsq(lhs, flat, rcond=None)[0]
            expected = np.linalg.norm(lhs @ x - flat)
            # the defect c (E_12 + E_23) has spectral norm 1, Frobenius norm sqrt 2
            assert expected == pytest.approx(math.sqrt(2.0), rel=1e-12)
        else:
            m = out.solution
            expected = np.linalg.norm(k * lam * m - (m @ b0 - b0 @ m) - rhs)
        assert abs(out.residual - expected) <= bar

    def test_residual_bound_random(self):
        tol = 1e-10
        for _ in range(30):
            n = int(RNG.integers(1, 5))
            b0 = random_matrix(n)
            rhs = random_matrix(n)
            lam = complex(0.5 + RNG.random(), RNG.standard_normal())
            k = int(RNG.integers(1, 5))
            out = sylvester_resolve(k, lam, b0, rhs, tol=tol)
            if out.kind != "obstructed":
                res = operator_norm(
                    k * lam * out.solution
                    - (out.solution @ b0 - b0 @ out.solution)
                    - rhs
                )
                assert res <= 10 * tol * max(1.0, operator_norm(rhs))


def resolvent(k, lam, b0):
    """``_resolvent`` at order k, with its own ad_B0 and norm."""
    ad = ad_matrix(b0)
    return _resolvent(k, lam, ad, np.linalg.norm(ad, 2), RESONANCE_RTOL)


def reference_solve(k, lam, b0, rhs):
    """The resolvent factored by ``_resolvent`` and solved directly."""
    res = resolvent(k, lam, b0)
    return res, unvec(np.linalg.solve(res.lhs, vec(rhs)), b0.shape[0])


class TestSylvesterFastPath:
    """Orders with |k lam| - ||ad_B0|| above the resonance cutoff cannot be
    resonant; they take an LU solve plus singular values only."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_resolvent_solve(self, svd_counter, n):
        b0, rhs = random_matrix(n, 0.3), random_matrix(n)
        lam = complex(0.9, 0.2)
        bound = np.linalg.norm(ad_matrix(b0), 2)
        orders = [
            k for k in range(1, 41)
            if k * abs(lam) - bound > RESONANCE_RTOL * (k * abs(lam) + bound)
        ]
        assert len(orders) >= 30
        for k in orders:
            before = svd_counter.full
            out = sylvester_resolve(k, lam, b0, rhs)
            assert svd_counter.full == before
            res, expected = reference_solve(k, lam, b0, rhs)
            assert out.kind == "unique"
            assert out.solution.tobytes() == expected.tobytes()
            assert abs(out.smallest_singular_value - res.sv[-1]) <= 1e-12 * res.sv[-1]

    @pytest.mark.parametrize("k, fast", [(2, False), (3, True)])
    def test_either_side_of_the_bound(self, svd_counter, k, fast):
        # ||ad_B0|| = 2.5: order 2 falls below the bound and takes a full
        # SVD; order 3 clears it by 0.5 (2 ||B0|| = 5 would not clear it)
        b0 = np.diag([0.0, 2.5]).astype(complex)
        rhs = np.array([[0.3, -1.0], [2.0, 0.5j]], dtype=complex)
        out = sylvester_resolve(k, 1.0, b0, rhs)
        assert svd_counter.full == (0 if fast else 1)
        res, expected = reference_solve(k, 1.0, b0, rhs)
        assert out.kind == "unique"
        assert out.solution.tobytes() == expected.tobytes()
        assert out.smallest_singular_value == pytest.approx(res.sv[-1], rel=1e-14)

    @pytest.mark.parametrize("rtol", [RESONANCE_RTOL, 0.0])
    def test_on_the_bound_takes_full_svd(self, svd_counter, rtol):
        # |k lam| = ||ad_B0|| = 2: the floor is 0, which does not clear the
        # cutoff even at rtol = 0, so order 2 takes the full SVD although 2i
        # is no eigenvalue of ad_B0 (sigma_min = 2)
        b0 = np.diag([0.0, 2.0]).astype(complex)
        rhs = np.array([[0.3, -1.0], [2.0, 0.5j]], dtype=complex)
        out = sylvester_resolve(2, 1j, b0, rhs, resonance_rtol=rtol)
        assert svd_counter.full == 1
        assert out.kind == "unique"
        assert out.solution.tobytes() == reference_solve(2, 1j, b0, rhs)[1].tobytes()
        assert out.smallest_singular_value == pytest.approx(2.0, rel=1e-14)

    def test_passed_sigma_min_decides(self, svd_counter):
        # sigma_min = 0.5 at orders 2 and 3.  A passed sigma_min above the
        # cutoff takes the LU solve below the ||ad_B0|| bound, and is reported;
        # one at or below it takes the full SVD above the bound, whose own
        # value is reported
        b0 = np.diag([0.0, 2.5]).astype(complex)
        rhs = np.array([[0.3, -1.0], [2.0, 0.5j]], dtype=complex)
        lu = sylvester_resolve(2, 1.0, b0, rhs, sigma_min=0.25)
        # the defect is measured on the LU-solved system: no SVD of any size
        assert sum(svd_counter.by_size.values()) == 0
        full = sylvester_resolve(3, 1.0, b0, rhs, sigma_min=0.0)
        assert svd_counter.full == 1
        assert lu.smallest_singular_value == 0.25
        assert lu.solution.tobytes() == reference_solve(2, 1.0, b0, rhs)[1].tobytes()
        assert full.kind == "unique"
        assert full.smallest_singular_value == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize(
        "delta, rhs01, kind",
        [
            (0.0, 0.0, "resonant_solvable"),
            (0.0, 1.0, "obstructed"),
            # sigma_min = delta against a cutoff of 1e-8 (2 + delta)
            (1e-8, 0.0, "resonant_solvable"),
            (1e-8, 1.0, "obstructed"),
            (3e-8, 0.0, "unique"),
            (3e-8, 1.0, "unique"),
        ],
    )
    def test_resonant_and_near_cutoff_orders(self, delta, rhs01, kind):
        b0 = np.diag([0.0, 1.0 + delta]).astype(complex)
        rhs = np.array([[0.4, rhs01], [1.0, -0.7]], dtype=complex)
        res = resolvent(1, 1.0, b0)
        assert bool(res.resonant) == (kind != "unique")
        out = sylvester_resolve(1, 1.0, b0, rhs)
        assert out.kind == kind
        assert out.smallest_singular_value == float(res.sv[-1])
        if kind == "unique":
            assert out.solution.tobytes() == reference_solve(1, 1.0, b0, rhs)[1].tobytes()
