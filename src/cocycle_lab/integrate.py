"""Adaptive embedded Runge-Kutta integration for complex-valued states.

A single Dormand-Prince 5(4) pair drives both the semigroup flow and the
cocycle evolution solver.  States are flat complex ndarrays; the right-hand
side receives ``(t, y)`` and returns an array of the same shape.

The step sequence does not depend on the output times: only the last step is
clipped, to land on the final time.  A state at an output time strictly
inside an accepted step comes from the pair's quartic continuous extension
(Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.6) over that step's
stages, so output times cost no steps.  The last stage of an accepted step is
the right-hand side at its end (first same as last), so a step makes six
right-hand-side calls after the first.

A step's seven stages live in one complex array of shape (7,) + y.shape.
The tableau's weights are real, so every stage input, the fifth-order state,
the error estimate and each interpolated state is one real matrix-vector
product of a weight row with that array viewed as real numbers.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoConvergenceError

# Dormand-Prince 5(4) tableau.  Row i of _A weights the stages in the
# input of stage i; the last row equals _B5, so the last stage is taken at
# the fifth-order result itself.  The fifth-order weights propagate the
# solution; the difference row estimates the local error of the embedded
# fourth-order result.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_A = np.array([
    [0.0] * 7,
    [1 / 5] + [0.0] * 6,
    [3 / 40, 9 / 40] + [0.0] * 5,
    [44 / 45, -56 / 15, 32 / 9] + [0.0] * 4,
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729] + [0.0] * 3,
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656] + [0.0] * 2,
    _B5,
])
_ERR = _B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
# Continuous extension (Shampine, Math. Comp. 46, 1986), order 4:
# y(t + theta h) = y + h sum_i k_i p_i(theta) with the quartics
# p_i(theta) = sum_j _DENSE[i, j] theta^(j+1), and p_i(1) = _B5[i].
_DENSE = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 200_000


def _combine(w, stages, shape):
    """sum_i w[i] stages[i] as one real matrix-vector product: the weights
    are real, so they act on the real and imaginary parts alike."""
    n = len(w)
    flat = stages[:n].reshape(n, -1).view(float)
    return (w @ flat).view(complex).reshape(shape)


def _step(rhs, t, y, h, k1):
    """One Dormand-Prince step from (t, y) with first stage k1 = rhs(t, y):
    returns (y5, the unscaled local error estimate, the seven stages stacked
    in one array of shape (7,) + y.shape).  The last stage is
    rhs(t + h, y5), the next step's first stage."""
    k = np.empty((7,) + y.shape, dtype=complex)
    k[0] = k1
    for i in range(1, 7):  # the last stage input is y5: row 6 of _A is _B5
        yi = y + h * _combine(_A[i, :i], k, y.shape)
        k[i] = rhs(t + _C[i] * h, yi)
    return yi, h * _combine(_ERR, k, y.shape), k


def _dense(y, h, k, theta):
    """The state at t + theta h, 0 < theta < 1, of a step from (t, y) with
    stacked stages k, by the continuous extension."""
    return y + h * _combine(_DENSE @ theta ** np.arange(1, 5), k, y.shape)


def integrate(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_values: Sequence[float],
    y0: np.ndarray,
    *,
    tol: float = 1e-10,
    guard: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) from ``t_values[0]`` through the later times.

    ``t_values`` is ``(t_start, t_1, ..., t_k)``, ascending; the result has
    shape ``(k,) + y0.shape`` and holds the states at ``t_1, ..., t_k``.  One
    adaptive integration covers the whole span with local error per step
    <= tol.  The steps do not depend on the output times: only the last step
    is clipped, to land on ``t_k``.  A time at or before the start copies
    ``y0``, a time at an accepted step's end copies that step's state, and a
    time strictly inside an accepted step is interpolated from its stages
    (order 4, not controlled by the error estimate).  ``tol`` must be a
    positive finite number and every time finite, else ValueError.
    ``_MAX_STEPS`` caps the steps of the whole call.

    ``guard`` is called on every accepted state and may raise (used to detect
    trajectories escaping the unit disk).  An interpolated state is not
    guarded; it lies inside a step whose ends passed the guard.
    """
    tol = float(tol)
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a positive finite number, got {tol!r}")
    times = [float(t) for t in t_values]
    if not times:
        raise ValueError("t_values needs a start time")
    if not all(math.isfinite(t) for t in times):
        raise ValueError(f"times must be finite, got {times!r}")
    if any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("integration backwards in time is not supported")
    y = np.asarray(y0, dtype=complex).copy()
    out = np.empty((len(times) - 1,) + y.shape, dtype=complex)
    t, t_end = times[0], times[-1]
    span = t_end - t
    slack = 1e-15 * span  # a time this close after a state copies it

    i = 1
    while i < len(times) and times[i] <= t + slack:
        out[i - 1] = y
        i += 1
    if i == len(times):
        return out
    if guard is not None:
        guard(y)
    k1 = rhs(t, y)
    h = min(span, max(span * 1e-4, 1e-6))
    for _ in range(_MAX_STEPS):
        last = t_end - t <= h
        h_step = t_end - t if last else h
        y_new, err, k = _step(rhs, t, y, h_step, k1)
        scale = tol * (1.0 + np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale)) if err.size else 0.0
        if err_norm <= 1.0:
            t_new = t_end if last else t + h_step
            while i < len(times) and times[i] < t_new:
                out[i - 1] = _dense(y, h_step, k, (times[i] - t) / h_step)
                i += 1
            while i < len(times) and times[i] <= t_new + slack:
                out[i - 1] = y_new
                i += 1
            t, y, k1 = t_new, y_new, k[-1]
            if guard is not None:
                guard(y)
            if i == len(times):
                return out
            factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm ** -0.2
            h = h_step * min(_MAX_FACTOR, max(1.0, factor))
        else:
            h = h_step * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
            if h < 1e-14 * span:
                raise NoConvergenceError("step size underflow in adaptive integrator")
    raise NoConvergenceError("adaptive integrator exceeded the step cap")


def integrate_at(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    t_values: Sequence[float],
    y0: np.ndarray,
    *,
    tol: float = 1e-10,
    guard: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """States at several nonnegative ascending times, starting from t = 0.

    One continued ``integrate`` call from 0 to the last time in
    ``t_values``; the other times are interpolated and cost no steps.
    Returns an array of shape ``(len(t_values),) + y0.shape``.
    """
    times = [float(t) for t in t_values]
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("t_values must be nonnegative and ascending")
    return integrate(rhs, [0.0] + times, y0, tol=tol, guard=guard)
