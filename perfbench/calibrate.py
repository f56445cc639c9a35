"""Machine-speed calibration for the timing metrics.

On a shared VM the speed of the machine moves in phases lasting seconds to
minutes, by up to a factor of two, and process CPU time moves with it.  A
fixed kernel, owned by the benchmark and never by the library, is timed
between consecutive tasks.  Its time over ``REFERENCE_MS`` is the speed
factor of that moment, and each task's wall time is divided by the factor of
the moments around it.  Timing metrics are therefore wall times at the
reference speed: the speed at which this kernel takes ``REFERENCE_MS``.
The kernel mimics the library's instruction mix: a Python loop of
Runge-Kutta-like updates on small complex arrays, summed through generator
expressions, and small dense LAPACK calls.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time in ms at the reference speed (its typical time in the fast
#: phase of a 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4, one BLAS thread)
REFERENCE_MS = 2.5

_Y0 = np.linspace(0.0, 0.5, 130) * (1.0 + 0.5j)
_WEIGHTS = (0.2, 0.3, 0.5)
_MATS = np.random.default_rng(0).normal(size=(12, 4, 4)) + 0j


def kernel() -> complex:
    y = _Y0.copy()
    for _ in range(60):
        k = [y * (1.0 - 0.5j)]
        for a in _WEIGHTS:
            k.append((y + a * sum(w * ki for w, ki in zip(_WEIGHTS, k))) * (0.9 + 0.1j))
        y = y + 1e-3 * sum(k)
    acc = 0j
    for m in _MATS:
        acc += np.linalg.svd(m, compute_uv=False)[-1]
        acc += complex(np.linalg.solve(m + 4.0 * np.eye(4), m[:, 0])[0])
    return complex(y[-1]) + acc


def speed_factor() -> float:
    """Current slowdown relative to the reference speed (1.0 = reference)."""
    start = time.perf_counter()
    kernel()
    return (time.perf_counter() - start) * 1e3 / REFERENCE_MS
