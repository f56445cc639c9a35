"""Matrix kernel tests: fixed examples plus randomized invariant suites."""

import numpy as np
import pytest

from cocycle_lab.algebra import (
    ad_matrix,
    eigenvalues,
    log_norm,
    mat_exp,
    mat_inv,
    operator_norm,
    sylvester_resolve,
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
            match_multisets(eigenvalues(ad_matrix(b0), max_dim=32), diffs, 1e-6)


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
