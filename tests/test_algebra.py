"""Matrix kernel tests: fixed examples plus randomized invariant suites."""

import math

import numpy as np
import pytest

from cocycle_lab.algebra import (
    RESONANCE_RTOL,
    Commutator,
    ad_matrix,
    log_norm,
    mat_exp,
    mat_inv,
    operator_norm,
    schur,
    sylvester_resolve,
    unvec,
    vec,
)
from cocycle_lab.errors import DimensionTooLargeError, SingularMatrixError
from conftest import non_normal_b0

RNG = np.random.default_rng(20240811)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)


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
            mus = np.linalg.eigvals(b0)
            diffs = (mus[:, None] - mus[None, :]).ravel()
            match_multisets(np.linalg.eigvals(ad_matrix(b0)), diffs, 1e-6)

    def test_dimension_cap(self, monkeypatch):
        # refused before any n^2 x n^2 array is built
        monkeypatch.setattr(np, "kron", None)
        with pytest.raises(DimensionTooLargeError, match="dimension 33 exceeds the cap 32") as info:
            ad_matrix(np.eye(33, dtype=complex))
        assert isinstance(info.value, ValueError)


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
    """The resolvent at order k, from a kernel of its own."""
    return Commutator(b0).resolvent(k, lam, RESONANCE_RTOL)


def reference_solve(k, lam, b0, rhs):
    """The resolvent factored by ``Commutator.resolvent`` and solved directly."""
    res = resolvent(k, lam, b0)
    return res, unvec(np.linalg.solve(res.lhs, vec(rhs)), b0.shape[0])


def assert_close(got, expected, rtol=1e-12):
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


class TestSylvesterFastPath:
    """A non-resonant order takes singular values only and is solved by the
    column sweep in the Schur basis of b0, which agrees with a direct solve
    of the Kronecker system; only a resonant order takes a full SVD."""

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_matches_resolvent_solve(self, svd_counter, solve_counter, n):
        b0, rhs = random_matrix(n, 0.3), random_matrix(n)
        lam = complex(0.9, 0.2)
        bound = np.linalg.norm(ad_matrix(b0), 2)
        orders = [
            k for k in range(1, 41)
            if k * abs(lam) - bound > RESONANCE_RTOL * (k * abs(lam) + bound)
        ]
        assert len(orders) >= 30
        for k in orders:
            before = svd_counter.full[n * n], solve_counter.by_size[n * n]
            out = sylvester_resolve(k, lam, b0, rhs)
            assert svd_counter.full[n * n] == before[0]
            # the sweep inverts n x n blocks: nothing of size n^2 > n is solved
            assert n == 1 or solve_counter.by_size[n * n] == before[1]
            res, expected = reference_solve(k, lam, b0, rhs)
            assert out.kind == "unique"
            assert_close(out.solution, expected)
            assert abs(out.smallest_singular_value - res.sv[-1]) <= 1e-12 * res.sv[-1]

    @pytest.mark.parametrize("k, clears", [(2, False), (3, True)])
    def test_either_side_of_the_bound(self, svd_counter, k, clears):
        # ||ad_B0|| = 2.5: the floor |k lam| - ||ad_B0|| of order 2 falls
        # below the cutoff and that of order 3 clears it by 0.5; neither
        # order is resonant, so both take singular values only
        b0 = np.diag([0.0, 2.5]).astype(complex)
        rhs = np.array([[0.3, -1.0], [2.0, 0.5j]], dtype=complex)
        assert (k - 2.5 > RESONANCE_RTOL * (k + 2.5)) == clears
        out = sylvester_resolve(k, 1.0, b0, rhs)
        assert (svd_counter.full[4], svd_counter.by_size[4]) == (0, 1)
        res, expected = reference_solve(k, 1.0, b0, rhs)
        assert out.kind == "unique"
        assert_close(out.solution, expected)
        assert out.smallest_singular_value == pytest.approx(res.sv[-1], rel=1e-14)

    @pytest.mark.parametrize("rtol", [RESONANCE_RTOL, 0.0])
    def test_on_the_bound_takes_singular_values_only(self, svd_counter, rtol):
        # |k lam| = ||ad_B0|| = 2: the floor is 0, which does not clear the
        # cutoff even at rtol = 0, but 2i is no eigenvalue of ad_B0
        # (sigma_min = 2), so order 2 takes no singular vectors
        b0 = np.diag([0.0, 2.0]).astype(complex)
        rhs = np.array([[0.3, -1.0], [2.0, 0.5j]], dtype=complex)
        out = sylvester_resolve(2, 1j, b0, rhs, resonance_rtol=rtol)
        assert (svd_counter.full[4], svd_counter.by_size[4]) == (0, 1)
        assert out.kind == "unique"
        assert_close(out.solution, reference_solve(2, 1j, b0, rhs)[1])
        assert out.smallest_singular_value == pytest.approx(2.0, rel=1e-14)

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
    def test_resonant_and_near_cutoff_orders(self, svd_counter, delta, rhs01, kind):
        b0 = np.diag([0.0, 1.0 + delta]).astype(complex)
        rhs = np.array([[0.4, rhs01], [1.0, -0.7]], dtype=complex)
        res = resolvent(1, 1.0, b0)
        assert bool(res.resonant) == (kind != "unique")
        before = svd_counter.full[4]
        out = sylvester_resolve(1, 1.0, b0, rhs)
        assert out.kind == kind
        # singular vectors only for the pseudo-inverse solve
        assert svd_counter.full[4] - before == (kind != "unique")
        assert out.smallest_singular_value == float(res.sv[-1])
        if kind == "unique":
            # sigma_min = 3e-8: the 1 / sigma_min of the (1, 2) entry is exact
            # in both solves, so the agreement stays at rounding level
            assert_close(out.solution, reference_solve(1, 1.0, b0, rhs)[1])


class TestCommutator:
    """The kernel of k lam - ad_B0: ad_B0, its norm and B0's Schur form,
    built from B0 alone, which ``sylvester_resolve`` takes in place of b0."""

    def test_dimension_cap(self, monkeypatch):
        # refused when the kernel is built, before any n^2 x n^2 array
        monkeypatch.setattr(np, "kron", None)
        with pytest.raises(DimensionTooLargeError, match="dimension 33 exceeds the cap 32"):
            Commutator(np.eye(33, dtype=complex))

    def test_holds_a_copy_of_b0(self):
        b0 = np.diag([0.0, 1.0]).astype(complex)
        ad = Commutator(b0)
        b0[0, 0] = 5.0
        assert np.array_equal(ad.b0, np.diag([0.0, 1.0]))
        assert np.array_equal(ad.matrix, ad_matrix(np.diag([0.0, 1.0])))
        assert ad.norm == 1.0

    def test_sylvester_resolve_same_bytes_for_a_matrix_or_its_kernel(self):
        # one kernel shared by every call, in an order that takes the Schur
        # form before and after the resonant solves, against fresh matrix calls
        # (B0's eigenvalues 0 and 1 resonate at order 1 with lam = 1; the
        # right-hand side in range is the image of m, E12 leaves it)
        b0 = np.diag([0.0, 1.0]).astype(complex) + 0.25 * E12
        ad = Commutator(b0)
        m = np.array([[0.3, 0.2], [-0.1, 0.4j]])
        in_range = m - (m @ b0 - b0 @ m)
        cases = [
            (2, in_range + E12, "unique"),
            (1, in_range, "resonant_solvable"),
            (1, in_range + E12, "obstructed"),
            (3, np.array([[0.1, -1.0], [2.0, 0.5]]), "unique"),
        ]
        for k, rhs, kind in cases:
            via_matrix, via_kernel = (sylvester_resolve(k, 1.0, b, rhs) for b in (b0, ad))
            assert via_matrix.kind == via_kernel.kind == kind
            for field in ("residual", "smallest_singular_value"):
                got = np.float64(getattr(via_kernel, field))
                assert got.tobytes() == np.float64(getattr(via_matrix, field)).tobytes()
            if kind == "obstructed":
                assert via_matrix.solution is via_kernel.solution is None
            else:
                assert via_kernel.solution.tobytes() == via_matrix.solution.tobytes()


class TestSchur:
    """q unitary, q^H b0 q upper triangular to rounding, and the diagonal of
    t the spectrum of b0, each to the accuracy its case allows."""

    @staticmethod
    def cases():
        jordan = np.diag([0.5, 0.5, 0.5]) + np.diag([1.0, 1.0], 1)
        # the Jordan block beside the eigenvalue -0.2i, in a random unitary basis
        u = np.linalg.qr(random_matrix(4))[0]
        rotated_spectrum = np.array([0.5, 0.5, 0.5, -0.2j])
        rotated = u @ (np.diag(rotated_spectrum) + np.diag([1.0, 1.0, 0.0], 1)) @ u.conj().T
        d, num = non_normal_b0(16, 2.0)
        diag = np.array([0.3, -1.0 + 2.0j, 0.3, 5.0])
        eps = np.finfo(float).eps
        # (matrix, exact spectrum, tolerance on it): a defective eigenvalue of
        # multiplicity 3 moves by about eps^(1/3) under rounding, and one of
        # the n = 16 case (kappa(V) = 1.7e8) by about kappa(V) eps ||B0||
        return {
            "diagonal": (np.diag(diag), diag, 0.0),
            "jordan": (jordan, np.full(3, 0.5), 0.0),
            "jordan-rotated": (rotated, rotated_spectrum, 10 * eps ** (1 / 3)),
            "scalar": (np.array([[2.0 - 1.0j]]), np.array([2.0 - 1.0j]), 0.0),
            "non-normal-16": (num[0], d, 1e-6),
        }

    @pytest.mark.parametrize(
        "name", ["diagonal", "jordan", "jordan-rotated", "scalar", "non-normal-16"]
    )
    def test_unitary_triangular_spectral(self, name):
        b0, spectrum, tol = self.cases()[name]
        b0 = b0.astype(complex)
        q, t = schur(b0)
        n = b0.shape[0]
        assert operator_norm(q.conj().T @ q - np.eye(n)) <= 1e-14
        assert np.array_equal(t, np.triu(t))
        full = q.conj().T @ b0 @ q
        scale = operator_norm(b0)
        assert np.max(np.abs(np.tril(full, -1)), initial=0.0) <= 1e-13 * scale
        assert operator_norm(full - t) <= 1e-13 * scale
        match_multisets(np.diagonal(t), spectrum, tol)
        if name == "non-normal-16":
            assert np.linalg.cond(np.linalg.eig(b0)[1]) > 1e8


def test_batched_sweep_bit_equal_to_single_order_sweeps():
    # each order's block inverses take the same products whatever other
    # orders share the batch, so linearize and sylvester_resolve agree exactly
    lam = complex(0.9, 0.2)
    orders = [1, 2, 3, 7, 16, 33, 64]
    for n in (2, 3, 8, 16, 17):
        ad = Commutator(non_normal_b0(n, 0.5)[1][0])
        sweep = ad.sweeper(lam, orders)
        for k in orders:
            rhs = random_matrix(n)
            assert sweep(k, rhs).tobytes() == ad.sweeper(lam, [k])(k, rhs).tobytes()


@pytest.mark.parametrize("n_scale", [0.5, 3.0])
@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_sweep_backward_residual(n, n_scale):
    # ||k lam X - (X T - T X) - R||_F against the rounding of the operator,
    # at every order 1..64 of one batch; read 1.2e-16 at most
    ad = Commutator(non_normal_b0(n, n_scale)[1][0])
    t = ad.schur_form[1]
    lam = complex(0.9, 0.2)
    orders = range(1, 65)
    sweep = ad.sweeper(lam, orders)
    t_norm = operator_norm(t)
    for k in orders:
        rhs = random_matrix(n)
        x = sweep(k, rhs)
        residual = np.linalg.norm(k * lam * x - (x @ t - t @ x) - rhs)
        scale = np.linalg.norm(rhs) + np.linalg.norm(x) * (abs(k * lam) + 2.0 * t_norm)
        assert residual <= 1e-15 * scale
