"""Adaptive embedded Runge-Kutta integration for complex-valued states.

A single Dormand-Prince 5(4) pair drives both the semigroup flow and the
cocycle evolution solver.  States are flat complex ndarrays; the right-hand
side receives ``(t, y)`` and returns an array of the same shape.
"""

from __future__ import annotations

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
    t_span: tuple[float, float],
    y0: np.ndarray,
    *,
    tol: float = 1e-10,
    guard: Optional[Callable[[np.ndarray], None]] = None,
) -> np.ndarray:
    """Integrate y' = rhs(t, y) over t_span; local error per step <= tol.

    ``guard`` is called on every accepted state and may raise (used to detect
    trajectories escaping the unit disk).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    y = np.asarray(y0, dtype=complex).copy()
    if t1 == t0:
        return y
    if t1 < t0:
        raise ValueError("integration backwards in time is not supported")
    if guard is not None:
        guard(y)

    span = t1 - t0
    t = t0
    h = min(span, max(span * 1e-4, 1e-6))
    for _ in range(_MAX_STEPS):
        h = min(h, t1 - t)
        y_new, err = _step(rhs, t, y, h)
        scale = tol * (1.0 + np.abs(y_new))
        err_norm = float(np.max(np.abs(err) / scale)) if err.size else 0.0
        if err_norm <= 1.0:
            t += h
            y = y_new
            if guard is not None:
                guard(y)
            if t >= t1 - 1e-15 * span:
                return y
            factor = _MAX_FACTOR if err_norm == 0.0 else _SAFETY * err_norm ** -0.2
            h *= min(_MAX_FACTOR, max(1.0, factor))
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err_norm ** -0.2)
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
    """States at several ascending times (one continued integration).

    Returns an array of shape ``(len(t_values),) + y0.shape``.
    """
    times = [float(t) for t in t_values]
    if any(t < 0 for t in times) or any(b < a for a, b in zip(times, times[1:])):
        raise ValueError("t_values must be nonnegative and ascending")
    out = np.empty((len(times),) + np.shape(y0), dtype=complex)
    y = np.asarray(y0, dtype=complex)
    t_prev = 0.0
    for i, t in enumerate(times):
        y = integrate(rhs, (t_prev, t), y, tol=tol, guard=guard)
        out[i] = y
        t_prev = t
    return out
