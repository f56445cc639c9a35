"""Outside-in work counters for the user-supplied maps B and f.

The library only ever calls B and f, so wrapping them is enough to count
how much work it asks of a caller: calls of B and the points at which B and
f are evaluated, a Taylor expansion of B counting as one point, its center.
Each wrapper keeps exactly the attributes the library inspects (``dim`` and
``taylor`` on generator objects, none on plain callables), so no code path
changes; the self-test checks that wrapped and unwrapped runs give
bit-identical results.
"""

from __future__ import annotations

import numpy as np

from cocycle_lab.cocycle import CocycleGenerator
from cocycle_lab.dynamics import RationalMap


class Counters:
    """Running totals; counting happens only while ``active`` is set, so the
    harness's own reference and verification calls are never counted."""

    FIELDS = ("b_calls", "b_points", "f_points")

    def __init__(self):
        self.active = False
        for name in self.FIELDS:
            setattr(self, name, 0)
        self.generator_cls = generator_class(self)
        self.map_cls = rational_map_class(self)

    def snapshot(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def add_b(self, z) -> None:
        if self.active:
            self.b_calls += 1
            self.b_points += int(np.size(z))

    def add_taylor(self) -> None:
        if self.active:
            # a Taylor expansion evaluates B's jet at one point, its center
            self.b_points += 1

    def add_f(self, z) -> None:
        if self.active:
            self.f_points += int(np.size(z))


def generator_class(counters: Counters) -> type:
    """A CocycleGenerator subclass whose instances report to ``counters``.

    Built once per Counters object, so that library code constructing
    generators by class (the CLI's scenario parser) can be handed it.
    """

    class CountingGenerator(CocycleGenerator):
        def __call__(self, z):
            counters.add_b(z)
            return super().__call__(z)

        def taylor(self, center, order):
            counters.add_taylor()
            return super().taylor(center, order)

    return CountingGenerator


def rational_map_class(counters: Counters) -> type:
    """A RationalMap subclass whose evaluations report to ``counters``."""

    class CountingRationalMap(RationalMap):
        def __call__(self, z):
            counters.add_f(z)
            return super().__call__(z)

    return CountingRationalMap


class CountingCallable:
    """Counts a plain callable generator (one without ``dim`` or ``taylor``,
    such as the sqrt-nonexp demo's), exposing nothing but ``__call__``."""

    def __init__(self, fn, counters: Counters):
        self._fn = fn
        self._counters = counters

    def __call__(self, z):
        self._counters.add_b(z)
        return self._fn(z)


def wrap_generator(B, counters: Counters):
    if isinstance(B, CocycleGenerator):
        return counters.generator_cls(B.num, B.den)
    return CountingCallable(B, counters)


def wrap_map(f: RationalMap, counters: Counters) -> RationalMap:
    return counters.map_cls(f.num, f.den)
