"""Acceptance suite: the end-to-end criteria the package must meet, each
checked at its stated tolerance and reported as one PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; every criterion is also an ordinary assertion.
"""

import numpy as np
import pytest

from cocycle_lab.algebra import ad_matrix, operator_norm
from cocycle_lab.cocycle import (
    CocycleGenerator,
    boundedness_classify,
    check_axioms,
    evolve_grid,
    extract_generator_auto,
    growth_report,
    make_evolve_oracle,
)
from cocycle_lab.demos import demo_by_name, demo_catalog
from cocycle_lab.dynamics import RationalMap, build_model
from cocycle_lab.linearize import (
    commutative_linearize_interior,
    commutative_linearize_nofix,
    condition_check,
    linearize,
    reconstruct_error,
    sharpness_witness,
)

RNG = np.random.default_rng(1234509876)

LINEAR_MODEL = build_model(RationalMap([0.0, -1.0]))

T_GRID = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
Z_GRID = np.concatenate(
    [
        0.8 * np.exp(2j * np.pi * np.arange(8) / 8),
        np.array([0.0, 0.4, -0.3 + 0.3j, 0.2 - 0.5j]),
    ]
)


def _report(num: int, description: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def random_unitary(n):
    q, r = np.linalg.qr(RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def match_multisets(a, b):
    a, b = list(a), list(b)
    worst = 0.0
    while a:
        d, i, j = min(
            (abs(x - y), i, j) for i, x in enumerate(a) for j, y in enumerate(b)
        )
        worst = max(worst, d)
        a.pop(i)
        b.pop(j)
    return worst


def test_criterion_1_jordan_obstruction():
    entry = demo_by_name("jordan-obstruction")
    vals = evolve_grid(LINEAR_MODEL, entry.generator, T_GRID, Z_GRID, tol=1e-12)
    evolve_err = max(
        operator_norm(vals[i, j] - entry.oracle(t, complex(z)))
        for i, t in enumerate(T_GRID)
        for j, z in enumerate(Z_GRID)
    )
    cond = condition_check(np.diag([1.0, 2.0]).astype(complex), 1.0)
    outcome = linearize(LINEAR_MODEL, entry.generator)
    _report(
        1,
        "Jordan obstruction reproduction",
        evolve_err <= 1e-8
        and cond.violated_k == [1]
        and outcome.status == "obstructed"
        and outcome.obstructed_at == 1,
        f"evolve deviation {evolve_err:.2e}, violated_k {cond.violated_k}, "
        f"status {outcome.status}@{outcome.obstructed_at}",
    )


def test_criterion_2_scalar_rational():
    entry = demo_by_name("linear-scalar-rational")
    vals = evolve_grid(LINEAR_MODEL, entry.generator, T_GRID, Z_GRID, tol=1e-12)
    evolve_err = max(
        operator_norm(vals[i, j] - entry.oracle(t, complex(z)))
        for i, t in enumerate(T_GRID)
        for j, z in enumerate(Z_GRID)
    )
    rep = growth_report(LINEAR_MODEL, entry.generator, 0.5, gamma=entry.oracle)
    _report(
        2,
        "scalar rational cocycle and its growth rate",
        evolve_err <= 1e-8
        and abs(rep.k_mu - 2.0) <= 1e-6
        and rep.max_violation == 0.0,
        f"evolve deviation {evolve_err:.2e}, k_mu {rep.k_mu:.9f}, "
        f"violation {rep.max_violation:.2e}",
    )


def test_criterion_3_non_exponential_growth():
    # |1 + sqrt(1 - w)| <= 1 + sqrt 2 and |1 + sqrt(1 - z)| >= 1 on the disk,
    # so |Gamma_t| <= (1 + sqrt 2) e^t there, while no bound e^{Kt} holds
    entry = demo_by_name("sqrt-nonexp")
    rep = growth_report(
        LINEAR_MODEL,
        entry.generator,
        0.999,
        t_values=(0.5, 1.0),
        gamma=entry.oracle,
    )
    ratios = []
    for disk in (0.5, 0.9):
        ring = disk * np.exp(2j * np.pi * np.arange(64) / 64)
        rows = boundedness_classify(entry.oracle, [0.5, 1.0, 2.0, 3.0], ring)
        ratios.append(max(s / ((1.0 + np.sqrt(2.0)) * np.exp(t)) for t, s in rows))
    _report(
        3,
        "short-time growth rate diverges while |Gamma_t| <= (1 + sqrt 2) e^t",
        rep.k_mu > 10.0 and max(ratios) <= 1.0,
        f"k_mu(0.999) = {rep.k_mu:.2f}, sup ratios "
        + ", ".join(f"{r:.2f}" for r in ratios),
    )


def test_criterion_4_linearization_round_trip():
    worst = 0.0
    for trial in range(20):
        n = 2 if trial % 2 == 0 else 3
        # eigenvalue differences stay at least 0.6 away from the positive integers
        eigs = 0.4 * RNG.random(n) + 0.3j * RNG.standard_normal(n)
        u = random_unitary(n)
        b0 = u @ np.diag(eigs) @ u.conj().T
        coeffs = np.stack(
            [b0]
            + [
                0.4 * (RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n)))
                for _ in range(2)
            ]
        )
        gen = CocycleGenerator(coeffs)
        outcome = linearize(LINEAR_MODEL, gen)
        assert outcome.status == "linearizable", f"trial {trial}: {outcome.status}"
        guard = min(outcome.radius_estimate, 0.5)
        zs = 0.75 * guard * np.exp(2j * np.pi * np.arange(4) / 4)
        samples = [(t, z) for t in (0.5, 1.5) for z in zs]
        err = reconstruct_error(LINEAR_MODEL, gen, outcome, samples, guard_radius=guard)
        worst = max(worst, err)
    _report(
        4,
        "20 random non-resonant scenarios linearize and reconstruct",
        worst <= 1e-5,
        f"worst reconstruction deviation {worst:.2e}",
    )


def test_criterion_5_sharpness():
    all_exact = True
    details = []
    for trial in range(10):
        n = 2 if trial % 2 == 0 else 3
        k = int(RNG.integers(1, 4))
        base = 0.3 * RNG.standard_normal()
        eigs = [base, base + k]
        if n == 3:
            eigs.append(base + 0.5 * k + 0.37j)
        u = random_unitary(n)
        b0 = u @ np.diag(np.array(eigs, dtype=complex)) @ u.conj().T
        gen = sharpness_witness(b0, 1.0, k)
        outcome = linearize(LINEAR_MODEL, gen)
        ok = outcome.status == "obstructed" and outcome.obstructed_at == k
        all_exact = all_exact and ok
        details.append(f"k={k}:{outcome.obstructed_at}")
    _report(
        5,
        "sharpness witnesses obstruct at exactly the constructed order",
        all_exact,
        " ".join(details),
    )


def test_criterion_6_generator_extraction():
    angles = 2j * np.pi * np.arange(8) / 8
    points = np.concatenate([0.45 * np.exp(angles), np.array([0.0, 0.2 - 0.1j])])
    worst = 0.0
    for entry in demo_catalog():
        model = entry.model()
        oracle = make_evolve_oracle(model, entry.generator, tol=1e-12)
        for z in points:
            recovered = extract_generator_auto(oracle, entry.f, complex(z))
            reference = np.atleast_2d(np.squeeze(entry.generator(complex(z))))
            worst = max(worst, operator_norm(recovered - reference))
    _report(
        6,
        "generator recovered from evolution samples at 10 interior points per demo",
        worst <= 1e-6,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_7_chain_rule_and_invertibility():
    worst_chain = 0.0
    min_margin = np.inf
    for entry in demo_catalog():
        model = entry.model()
        gamma = entry.oracle or make_evolve_oracle(model, entry.generator, tol=1e-11)
        rep = check_axioms(
            model, gamma, list(entry.sample_t[:2]), list(entry.sample_z), tol=1e-7
        )
        worst_chain = max(worst_chain, rep.chain_residual, rep.identity_residual)
        min_margin = min(min_margin, rep.min_singular_value)
    for _ in range(3):
        coeffs = 0.5 * (
            RNG.standard_normal((2, 2, 2)) + 1j * RNG.standard_normal((2, 2, 2))
        )
        gen = CocycleGenerator(coeffs)
        gamma = make_evolve_oracle(LINEAR_MODEL, gen, tol=1e-11)
        rep = check_axioms(LINEAR_MODEL, gamma, [0.4, 0.9], [0.3, -0.2 + 0.3j], tol=1e-7)
        worst_chain = max(worst_chain, rep.chain_residual, rep.identity_residual)
        min_margin = min(min_margin, rep.min_singular_value)
    _report(
        7,
        "chain rule holds and cocycle values stay invertible",
        worst_chain <= 1e-7 and min_margin > 0.0,
        f"worst residual {worst_chain:.2e}, invertibility margin {min_margin:.2e}",
    )


def test_criterion_8_commutative_cross_validation():
    entry = demo_by_name("linear-scalar-rational")
    outcome = linearize(LINEAR_MODEL, entry.generator)
    series_vs_quad = 0.0
    for z in (0.3, -0.25 + 0.1j, 0.2j):
        m_series = outcome.m.evaluate(z)[0, 0]  # h is the identity for f = -z
        m_quad = commutative_linearize_interior(LINEAR_MODEL, entry.generator, z)
        series_vs_quad = max(series_vs_quad, abs(m_series - m_quad))

    affine = demo_by_name("affine-scalar")
    transfer_err = 0.0
    recon_err = 0.0

    def transfer(z):
        # the cocycle exponentiates this integral and reaches ~1e4 along the
        # trajectory, so the quadrature runs well below the 1e-6 target
        return commutative_linearize_nofix(affine.f, affine.generator, z, tol=1e-12)

    for z in (0.0, 0.3, -0.2 + 0.2j):
        transfer_err = max(
            transfer_err, abs(transfer(z) - np.exp(1.0 - 1.0 / (1.0 - z)))
        )
    for s in (0.0, 0.5, 1.0):
        z_s = 1.0 - np.exp(-s)
        for t in (0.5, 1.5):
            z_t = 1.0 - (1.0 - z_s) * np.exp(-t)
            recon = transfer(z_t) ** -1 * transfer(z_s)
            recon_err = max(
                recon_err, abs(recon - affine.oracle(t, z_s)[0, 0])
            )
    _report(
        8,
        "quadrature and series linearizers agree; boundary coboundary "
        "reconstructs its cocycle",
        series_vs_quad <= 1e-6 and transfer_err <= 1e-6 and recon_err <= 1e-6,
        f"series vs quadrature {series_vs_quad:.2e}, transfer map {transfer_err:.2e}, "
        f"reconstruction {recon_err:.2e}",
    )


def test_criterion_9_ad_spectrum_law():
    worst = 0.0
    for _ in range(50):
        n = int(RNG.integers(1, 5))
        b0 = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
        mus = np.linalg.eigvals(b0)
        diffs = (mus[:, None] - mus[None, :]).ravel()
        worst = max(worst, match_multisets(np.linalg.eigvals(ad_matrix(b0)), diffs))
    _report(
        9,
        "commutator-map spectrum equals the pairwise eigenvalue differences",
        worst <= 1e-6,
        f"worst multiset mismatch {worst:.2e}",
    )
