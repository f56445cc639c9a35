"""Catalog of worked semicocycles with closed-form evaluators.

Each entry bundles a semigroup generator, a cocycle generator, a
closed-form oracle Gamma(t, z), and structured expectations, every formula
included (``expected["transfer_map"]`` is a coboundary's scalar M(z)), used
by the CLI ``demo`` command and by the verification suites.  Each
expectation is a statement the entry's closed form proves, checked on
samples: a sampled log-norm growth rate, a sup-norm bound on the whole disk
where no bound e^{Kt} holds, the exact double-exponential log-sup along a
trajectory, obstruction at a resonant order, a solvable resonance,
coboundaries, and clean linearizability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cocycle import CocycleGenerator
from .dynamics import RationalMap, SemigroupModel, build_model

BETA_POWER_EXPONENT = 0.5
BETA_POWER_WEIGHT = 0.3


def _closed_form(entries):
    """Oracle Gamma(t, z) with outer-product axes, shape t.shape + z.shape +
    (n, n), from ``entries(t, z)``: the rows as broadcasting expressions."""

    def gamma(t, z):
        z = np.asarray(z, dtype=complex)
        t = np.reshape(np.asarray(t, dtype=float), np.shape(t) + (1,) * z.ndim)
        rows = [np.broadcast_arrays(t, z, *row)[2:] for row in entries(t, z)]
        return np.stack([np.stack(row, -1) for row in rows], -2).astype(complex)

    return gamma


@dataclass
class DemoEntry:
    """A worked example; ``boundary`` (f fixes no point in the disk) asks ``build_model``."""

    name: str
    description: str
    dim: int
    f: RationalMap
    generator: object  # CocycleGenerator or matrix-valued callable
    # Gamma(t, z) with outer-product axes: shape t.shape + z.shape + (n, n)
    oracle: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]]
    expected: dict = field(default_factory=dict)
    # verification grid; entries with fast-growing cocycles choose a region
    # where the closed form stays moderate
    sample_t: tuple = (0.5, 1.0, 2.0)
    sample_z: tuple = (0.3 + 0.0j, -0.2 + 0.25j, 0.5j, 0.55 - 0.1j)

    @property
    def boundary(self) -> bool:
        return not build_model(self.f).is_interior

    def model(self, order: int = 24) -> SemigroupModel:
        return build_model(self.f, order=order)


def _linear_scalar_rational() -> DemoEntry:
    def entries(t, z):
        return [[(np.exp(t) - z) / (1.0 - z)]]

    return DemoEntry(
        name="linear-scalar-rational",
        description="B(z) = 1/(1-z) over the linear semigroup e^{-t} z; "
        "Gamma_t(z) = (e^t - z)/(1 - z), growth rate 1/(1-r) on the disk of radius r.",
        dim=1,
        f=RationalMap([0.0, -1.0]),
        generator=CocycleGenerator.scalar([1.0], [1.0, -1.0]),
        oracle=_closed_form(entries),
        expected={
            "k_mu": {"radius": 0.5, "value": 2.0},
            "status": "linearizable",
        },
    )


def _affine_scalar() -> DemoEntry:
    def entries(t, z):
        return [[np.exp((np.exp(t) - 1.0) / (1.0 - z))]]

    return DemoEntry(
        name="affine-scalar",
        description="B(z) = 1/(1-z) over the affine semigroup 1-(1-z)e^{-t} "
        "(boundary attracting point); a coboundary that outgrows every M e^{Kt} "
        "along trajectories.",
        dim=1,
        f=RationalMap([1.0, -1.0]),
        generator=CocycleGenerator.scalar([1.0], [1.0, -1.0]),
        oracle=_closed_form(entries),
        # F_s(0) = 1 - e^{-s}, so |Gamma_t(F_s 0)| = exp((e^t - 1) e^s): over
        # s in {0, 1, 2, 3} the log-sup is (e^t - 1) e^3
        expected={"trajectory_log_sup": lambda t: (np.exp(t) - 1.0) * np.exp(3.0),
                  "transfer_map": lambda z: np.exp(1.0 - 1.0 / (1.0 - z))},
        sample_t=(0.4, 0.8, 1.5),
        sample_z=(0.0j, -0.4 + 0.0j, -0.2 - 0.3j, 0.25j),
    )


def _sqrt_nonexp() -> DemoEntry:
    def entries(t, z):
        num = 1.0 + np.sqrt(1.0 - np.exp(-t) * z)
        den = 1.0 + np.sqrt(1.0 - z)
        return [[np.exp(t) * num / den]]

    def generator(z):
        zs = np.asarray(z, dtype=complex)
        root = np.sqrt(1.0 - zs)
        val = 1.0 + zs / (2.0 * root * (1.0 + root))
        return np.asarray(val)[..., None, None]

    return DemoEntry(
        name="sqrt-nonexp",
        description="Cocycle over e^{-t} z with |Gamma_t| <= (1 + sqrt 2) e^t on "
        "the whole disk but no bound e^{Kt} there: its short-time growth is not "
        "O(t), as the log-norm of B diverges toward z = 1.",
        dim=1,
        f=RationalMap([0.0, -1.0]),
        generator=generator,
        oracle=_closed_form(entries),
        # |1 + sqrt(1 - w)| <= 1 + sqrt 2 and |1 + sqrt(1 - z)| >= 1
        expected={"k_mu_divergent_radius": 0.999, "k_mu_exceeds": 10.0,
                  "disk_sup_bound": lambda t: (1.0 + np.sqrt(2.0)) * np.exp(t)},
    )


def _jordan_obstruction() -> DemoEntry:
    def entries(t, z):
        et = np.exp(t)
        return [[et, z * t * et], [0.0, et * et]]

    num = np.zeros((2, 2, 2), dtype=complex)
    num[0] = np.diag([1.0, 2.0])
    num[1] = np.array([[0.0, 1.0], [0.0, 0.0]])
    return DemoEntry(
        name="jordan-obstruction",
        description="B(z) = [[1, z], [0, 2]] over e^{-t} z: eigenvalue gap 1 "
        "resonates with the rate, and the off-diagonal term lands outside the "
        "range, so no linearization exists.",
        dim=2,
        f=RationalMap([0.0, -1.0]),
        generator=CocycleGenerator(num),
        oracle=_closed_form(entries),
        expected={"status": "obstructed", "obstructed_at": 1, "violated_k": [1]},
    )


def _resonant_solvable() -> DemoEntry:
    def entries(t, z):
        et = np.exp(t)
        return [[et, 0.0], [z * (et * et - 1.0) / 2.0, et * et]]

    num = np.zeros((2, 2, 2), dtype=complex)
    num[0] = np.diag([1.0, 2.0])
    num[1] = np.array([[0.0, 0.0], [1.0, 0.0]])
    return DemoEntry(
        name="resonant-solvable",
        description="Lower-triangular variant of the resonant pair: order 1 is "
        "resonant but the right-hand side stays in range, giving the polynomial "
        "transfer map I + z E21 / 2.",
        dim=2,
        f=RationalMap([0.0, -1.0]),
        generator=CocycleGenerator(num),
        oracle=_closed_form(entries),
        expected={
            "status": "resonant_solvable",
            "violated_k": [1],
            "m1": [[0.0, 0.0], [0.5, 0.0]],
        },
    )


def _beta_power() -> DemoEntry:
    beta = BETA_POWER_EXPONENT
    c = BETA_POWER_WEIGHT

    def entries(t, z):
        val = np.exp(-beta * t) * (1.0 + c * z) / (1.0 + c * np.exp(-t) * z)
        return [[val]]

    # -beta + c z / (1 + c z) written over the common denominator
    return DemoEntry(
        name="beta-power",
        description="Gamma_t(z) = (F_t z / z)^beta m(F_t z)^{-1} m(z) with "
        "m(z) = 1 + c z over e^{-t} z; linearizes with M = m and B0 = -beta.",
        dim=1,
        f=RationalMap([0.0, -1.0]),
        generator=CocycleGenerator.scalar([-beta, c * (1.0 - beta)], [1.0, c]),
        oracle=_closed_form(entries),
        expected={
            "status": "linearizable",
            "b0": -beta,
            "m_coeffs": [1.0, c],
        },
    )


def _diagonal_linearizable() -> DemoEntry:
    a1, a2 = 1.0, 1.5

    def entries(t, z):
        g11 = np.exp(a1 * t + z * (1.0 - np.exp(-t)))
        return [[g11, 0.0], [0.0, np.exp(a2 * t)]]

    num = np.zeros((2, 2, 2), dtype=complex)
    num[0] = np.diag([a1, a2])
    num[1] = np.diag([1.0, 0.0])
    return DemoEntry(
        name="diagonal-linearizable",
        description="B(z) = diag(1 + z, 1.5) over e^{-t} z: the eigenvalue gap "
        "0.5 avoids every integer multiple of the rate, so the recursion "
        "certifies linearizability.",
        dim=2,
        f=RationalMap([0.0, -1.0]),
        generator=CocycleGenerator(num),
        oracle=_closed_form(entries),
        expected={"status": "linearizable", "violated_k": [], "m1": np.diag([1.0, 0.0])},
    )


#: demo name -> builder of a fresh entry, in the catalog's stable order
_BUILDERS = {
    "linear-scalar-rational": _linear_scalar_rational,
    "affine-scalar": _affine_scalar,
    "sqrt-nonexp": _sqrt_nonexp,
    "jordan-obstruction": _jordan_obstruction,
    "resonant-solvable": _resonant_solvable,
    "beta-power": _beta_power,
    "diagonal-linearizable": _diagonal_linearizable,
}


def demo_catalog() -> list[DemoEntry]:
    """All packaged demos, in a stable order."""
    return [build() for build in _BUILDERS.values()]


def demo_by_name(name: str) -> DemoEntry:
    """A fresh entry for ``name``, building no other demo; KeyError if unknown."""
    if name not in _BUILDERS:
        raise KeyError(f"unknown demo {name!r}")
    return _BUILDERS[name]()
