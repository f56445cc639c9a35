"""Adaptive embedded Runge-Kutta integration for complex-valued states.

A single Dormand-Prince 5(4) pair drives both the semigroup flow and the
cocycle evolution solver.  States are flat complex ndarrays; the right-hand
side receives ``(t, y)`` and returns an array of the same shape.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoConvergenceError

# Dormand-Prince 5(4) tableau.  The fifth-order weights propagate the
# solution; the difference row estimates the local error of the embedded
# fourth-order result.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_ERR = _B5 - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_MAX_STEPS = 200_000


def _step(rhs, t, y, h):
    """One Dormand-Prince step: returns (y5, scaled error array)."""
    k = [rhs(t, y)]
    for i in range(1, 7):
        yi = y + h * sum(a * ki for a, ki in zip(_A[i], k))
        k.append(rhs(t + _C[i] * h, yi))
    y5 = y + h * sum(b * ki for b, ki in zip(_B5, k) if b != 0.0)
    err = h * sum(e * ki for e, ki in zip(_ERR, k) if e != 0.0)
    return y5, err


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
    <= tol.  The step size carries over output times: an output time only
    shortens the one step that would pass it, and the next step resumes from
    at least the size before shortening.  ``tol`` must be a positive finite
    number and every time finite, else ValueError.  ``_MAX_STEPS`` caps the
    steps of the whole call.

    ``guard`` is called on every accepted state and may raise (used to detect
    trajectories escaping the unit disk).
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
    t = times[0]
    span = times[-1] - t
    if span > 0.0 and guard is not None:
        guard(y)

    i = 1
    h = min(span, max(span * 1e-4, 1e-6))
    for _ in range(_MAX_STEPS):
        while i < len(times) and t >= times[i] - 1e-15 * span:
            out[i - 1] = y
            i += 1
        if i == len(times):
            return out
        clipped = times[i] - t <= h
        h_step = times[i] - t if clipped else h
        y_new, err = _step(rhs, t, y, h_step)
        scale = tol * (1.0 + np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale)) if err.size else 0.0
        if err_norm <= 1.0:
            t = times[i] if clipped else t + h_step
            y = y_new
            if guard is not None:
                guard(y)
            factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm ** -0.2
            h = max(h, h_step * min(_MAX_FACTOR, max(1.0, factor)))
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

    One continued ``integrate`` call from 0 through every time in
    ``t_values``; returns an array of shape ``(len(t_values),) + y0.shape``.
    """
    times = [float(t) for t in t_values]
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("t_values must be nonnegative and ascending")
    return integrate(rhs, [0.0] + times, y0, tol=tol, guard=guard)
