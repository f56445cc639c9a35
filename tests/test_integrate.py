"""Adaptive Dormand-Prince integration: one continued integration over
many output times, and the work it costs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocycle_lab import integrate as integ
from cocycle_lab.cocycle import (
    CocycleGenerator,
    check_axioms,
    evolve_grid,
    extract_generator_auto,
    growth_report,
    make_evolve_oracle,
)
from cocycle_lab.demos import demo_by_name
from cocycle_lab.dynamics import RationalMap, SemigroupModel, build_model
from cocycle_lab.linearize import commutative_linearize_interior
from conftest import StepCounter

TOL = 1e-12
# the 16 Gauss-Legendre nodes of [-1, 1], as generator extraction uses them
GAUSS_NODES = np.polynomial.legendre.leggauss(16)[0]


def evolution_rhs(_t, y):
    """u' = -u + u^2/2, G' = [[1, u], [0, 2]] G: a 2x2 evolution problem."""
    u = y[:1]
    b = np.array([[1.0, u[0]], [0.0, 2.0]])
    return np.concatenate([-u + 0.5 * u * u, (b @ y[1:].reshape(2, 2)).ravel()])


Y0 = np.concatenate([[0.3 + 0.1j], np.eye(2, dtype=complex).ravel()])


def single_span_and_outputs(counter, times):
    """Steps and final state of [0, max(times)] alone and of integrate_at."""
    t_end = times[-1]
    single, single_steps = counter.run(integ.integrate, evolution_rhs, (0.0, t_end), Y0, tol=TOL)
    states, steps = counter.run(integ.integrate_at, evolution_rhs, times, Y0, tol=TOL)
    return single[-1], single_steps, states, steps


def test_output_times_cost_at_most_one_step_each(step_counter):
    # the sample times of generator extraction at t0 = 0.1
    t_end = 0.1
    times = list(0.5 * t_end * (GAUSS_NODES + 1.0)) + [t_end]
    single, single_steps, states, steps = single_span_and_outputs(step_counter, times)
    assert steps == single_steps
    assert np.array_equal(states[-1], single)


def test_each_step_calls_rhs_six_times_after_the_first(step_counter):
    # first same as last: an accepted step hands its last stage on, and a
    # rejected one keeps its first stage; the guard sees the start and every
    # accepted state
    accepted = []
    rhs = step_counter.counted(evolution_rhs)
    _, steps = step_counter.run(
        integ.integrate, rhs, (0.0, 1.0), Y0, tol=TOL, guard=accepted.append
    )
    assert step_counter.rhs_calls == 6 * steps + 1
    assert steps > len(accepted) - 1  # some step was rejected
    integ.integrate(rhs, (0.5, 0.5), Y0, tol=TOL)
    assert step_counter.rhs_calls == 6 * steps + 1


def test_continuous_extension_ends_at_the_fifth_order_weights():
    assert np.allclose(integ._DENSE.sum(axis=1), integ._B5, rtol=0.0, atol=1e-15)


def test_interpolated_states_match_integrations_to_each_time():
    times = list(0.5 * (GAUSS_NODES + 1.0)) + [1.0]
    states = integ.integrate_at(evolution_rhs, times, Y0, tol=TOL)
    reference = [integ.integrate(evolution_rhs, (0.0, t), Y0, tol=1e-14)[-1] for t in times]
    assert np.max(np.abs(states - reference)) <= 1e-11


def test_start_time_and_repeated_times_give_equal_rows():
    states = integ.integrate_at(evolution_rhs, [0.0, 0.0, 0.4, 0.4, 0.4, 1.0], Y0, tol=TOL)
    assert states.shape == (6,) + Y0.shape
    assert np.array_equal(states[0], Y0) and np.array_equal(states[1], Y0)
    assert np.array_equal(states[2], states[3]) and np.array_equal(states[3], states[4])
    assert not np.array_equal(states[4], states[5])


def test_no_output_times_gives_empty_stack():
    states = integ.integrate_at(evolution_rhs, [], Y0, tol=TOL)
    assert states.shape == (0,) + Y0.shape


def test_integrate_returns_one_row_per_later_time():
    states = integ.integrate(evolution_rhs, (0.2, 0.5, 0.9), Y0, tol=TOL)
    assert states.shape == (2,) + Y0.shape
    assert integ.integrate(evolution_rhs, (0.2,), Y0, tol=TOL).shape == (0,) + Y0.shape


@pytest.mark.parametrize("tol", [0.0, -1e-11, float("nan"), float("inf")])
def test_tolerance_must_be_positive_and_finite(tol):
    with pytest.raises(ValueError, match="positive finite"):
        integ.integrate(evolution_rhs, (0.0, 1.0), Y0, tol=tol)
    with pytest.raises(ValueError, match="positive finite"):
        integ.integrate_at(evolution_rhs, [0.5, 1.0], Y0, tol=tol)


@pytest.mark.parametrize("times", [[0.5, 0.2], [-0.1, 0.3]])
def test_times_must_be_nonnegative_and_ascending(times):
    with pytest.raises(ValueError, match="nonnegative and ascending"):
        integ.integrate_at(evolution_rhs, times, Y0, tol=TOL)


@pytest.mark.parametrize("times", [(0.0, float("nan")), (0.0, 0.5, float("inf")), (-np.inf, 1.0)])
def test_times_must_be_finite(times):
    with pytest.raises(ValueError, match="times must be finite"):
        integ.integrate(evolution_rhs, times, Y0, tol=TOL)


def test_nan_output_time_is_refused():
    with pytest.raises(ValueError, match="times must be finite"):
        integ.integrate_at(evolution_rhs, [0.5, float("nan")], Y0, tol=TOL)


def test_integration_backwards_is_refused():
    with pytest.raises(ValueError, match="backwards"):
        integ.integrate(evolution_rhs, (0.5, 0.2), Y0, tol=TOL)


# every weight row a step or the continuous extension combines stages with
WEIGHT_ROWS = (
    [integ._A[i, :i] for i in range(1, 7)]
    + [integ._ERR]
    + [integ._DENSE @ theta ** np.arange(1, 5) for theta in (0.1, 0.5, 0.9)]
)


@pytest.mark.parametrize("shape", [(0,), (1,), (325,), (40, 2, 2)])
def test_stacked_stage_combination_matches_the_explicit_sum(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    k = rng.normal(size=(7,) + shape) + 1j * rng.normal(size=(7,) + shape)
    eps = np.finfo(float).eps
    for w in WEIGHT_ROWS:
        stages = k[: len(w)]
        explicit = sum(wi * ki for wi, ki in zip(w, stages))
        combined = integ._combine(w, k, shape)
        assert combined.shape == shape
        for part in (np.real, np.imag):
            bound = 4 * eps * sum(abs(wi) * np.abs(part(ki)) for wi, ki in zip(w, stages))
            assert np.all(np.abs(part(combined) - part(explicit)) <= bound)


def test_empty_state_steps_and_integrates():
    y = np.zeros(0, dtype=complex)
    y5, err, k = integ._step(lambda _t, v: -v, 0.0, y, 0.1, y)
    assert y5.shape == err.shape == (0,) and k.shape == (7, 0)
    assert integ.integrate(lambda _t, v: -v, (0.0, 0.5, 1.0), y).shape == (2, 0)


# ascending time lists in [0, 1] that start at 0 and may repeat a time
TIME_LISTS = (
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12)
    .flatmap(lambda ts: st.lists(st.sampled_from(ts), max_size=4).map(lambda d: ts + d))
    .map(lambda ts: [0.0] + sorted(ts))
    .filter(lambda ts: ts[-1] > 0.0)
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(times=TIME_LISTS)
def test_any_output_times_match_the_single_span(times):
    with pytest.MonkeyPatch.context() as monkeypatch:
        single, single_steps, states, steps = single_span_and_outputs(
            StepCounter(monkeypatch), times
        )
    assert steps == single_steps
    assert np.array_equal(states[-1], single)


# Work-counter gate: Dormand-Prince steps (accepted and rejected) of
# generator extraction with a 1e-12 evolve oracle at the ten points of the
# acceptance test (eight on |z| = 0.45, 0 and 0.2 - 0.1j).  Each ceiling is
# the count measured when output times were first interpolated, so that they
# cost no steps, plus 2%; a change that makes the integrator do more work
# fails here.
STEP_CEILINGS = {
    "linear-scalar-rational": 122,  # measured: 119
    "jordan-obstruction": 172,  # measured: 168
}
EXTRACTION_POINTS = list(0.45 * np.exp(2j * np.pi * np.arange(8) / 8)) + [0.0, 0.2 - 0.1j]


@pytest.mark.parametrize("name", sorted(STEP_CEILINGS))
def test_extraction_step_count_ceiling(step_counter, name):
    entry = demo_by_name(name)
    oracle = make_evolve_oracle(entry.model(), entry.generator, tol=1e-12)
    for z in EXTRACTION_POINTS:
        extract_generator_auto(oracle, entry.f, complex(z))
    assert step_counter.steps <= STEP_CEILINGS[name]


# Work-counter gate: the commutative interior linearizer integrates the
# augmented state (F_t z, integral of B - B0) and makes no flow call.  The two
# points lie outside the Koenigs radius (0.881) of f = -z + 0.9 z^2, with
# B = 1/(1 - z/2).  Each ceiling is the measured step count plus 5%; each
# reference is the value of the earlier quadrature (a recursive adaptive
# Simpson rule over flow calls from t = 0, about 17 s per point).
COMMUTATIVE_CASES = [
    (-0.93, 0.7536341773033101, 287),  # measured: 274
    (0.95j, 0.7624395250545253 + 0.26109202636274825j, 294),  # measured: 280
]


@pytest.mark.parametrize("z, reference, ceiling", COMMUTATIVE_CASES)
def test_commutative_interior_steps_and_no_flow(monkeypatch, step_counter, z, reference, ceiling):
    model = build_model(RationalMap([0.0, -1.0, 0.9]))
    B = CocycleGenerator.scalar([1.0], [1.0, -0.5])
    flow_calls = []
    flow = SemigroupModel.flow

    def counted_flow(self, *args):
        flow_calls.append(args)
        return flow(self, *args)

    monkeypatch.setattr(SemigroupModel, "flow", counted_flow)
    value = commutative_linearize_interior(model, B, z)
    assert flow_calls == []
    assert step_counter.steps <= ceiling
    assert abs(value - reference) <= 1e-8


def counting_generator(generator):
    """``generator`` as a CocycleGenerator that records how many points each
    call evaluates."""
    points = []

    class Counting(CocycleGenerator):
        def __call__(self, z):
            points.append(np.size(z))
            return super().__call__(z)

    return Counting(generator.num, generator.den), points


# Work-counter pin: Dormand-Prince steps (accepted and rejected) and the
# points B is evaluated at, for a 512-point jordan-obstruction evolve_grid
# at five times and for one growth report plus axiom check.  The counts are
# those of the step that summed its stages term by term; a kernel whose
# rounding flips a step's acceptance moves them.
PIN_RNG_SEED = 20240517
PIN_COUNTS = {"evolve_grid": (126, 387_584), "growth+axioms": (197, 11_040)}


def test_step_and_b_point_counts_are_pinned(step_counter):
    rng = np.random.default_rng(PIN_RNG_SEED)
    zs = 0.7 * np.sqrt(rng.random(512)) * np.exp(2j * np.pi * rng.random(512))
    jordan = demo_by_name("jordan-obstruction")
    B, points = counting_generator(jordan.generator)
    _, steps = step_counter.run(evolve_grid, jordan.model(), B, (0.3, 0.6, 0.9, 1.2, 1.5), zs)
    assert (steps, sum(points)) == PIN_COUNTS["evolve_grid"]

    model = build_model(RationalMap([0.0, -1.0, 0.3 - 0.2j]))
    scale = np.array([0.5, 0.3, 0.3])[:, None, None]
    num = scale * (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)))
    B, points = counting_generator(CocycleGenerator(num))
    zs = 0.5 * np.sqrt(rng.random(4)) * np.exp(2j * np.pi * rng.random(4))

    def growth_and_axioms():
        report = growth_report(model, B, 0.4)
        axioms = check_axioms(model, make_evolve_oracle(model, B), (0.3, 0.7), zs, tol=1e-7)
        return report, axioms

    (report, axioms), steps = step_counter.run(growth_and_axioms)
    assert report.max_violation <= 1e-9 and axioms.passed
    assert (steps, sum(points)) == PIN_COUNTS["growth+axioms"]
