"""Exception hierarchy shared by all cocycle_lab modules."""


class CocycleLabError(Exception):
    """Base class for every error raised by this package."""


class SingularMatrixError(CocycleLabError):
    """Matrix inversion requested for a (numerically) singular matrix."""


class NoConvergenceError(CocycleLabError):
    """The adaptive ODE stepper hit its step cap or a step-size underflow."""


class CenterMismatchError(CocycleLabError):
    """Series operands are expanded about different centers."""


class NotInvertibleError(CocycleLabError):
    """Series reversion needs a nonzero linear coefficient."""


class NoInteriorFixedPointError(CocycleLabError, ValueError):
    """The generator f has no zero inside the unit disk, or a computation
    that needs an interior fixed point got a boundary model."""


class ZeroRateError(CocycleLabError):
    """The attraction rate -f'(z0) is numerically zero."""


class NotAttractingError(CocycleLabError, ValueError):
    """The interior fixed point does not attract: Re(-f'(z0)) <= 0."""


class OutOfDomainError(CocycleLabError, ValueError):
    """Evaluation point lies outside the open unit disk."""


class DomainEscapeError(CocycleLabError):
    """An integrated trajectory left the unit disk (invalid generator input)."""


class SamplePointIsFixedPointError(CocycleLabError):
    """The spatial-derivative identity needs f(z) != 0 at the sample point."""


class VNotInvertibleError(CocycleLabError):
    """The time-averaged cocycle V(t0, z) is not invertible; retry with smaller t0."""


class NotInvariantError(CocycleLabError):
    """A sampled trajectory exited the disk the growth report assumes invariant."""


class DimensionTooLargeError(CocycleLabError, ValueError):
    """The n^2 x n^2 commutator matrix ad_B0 was requested above the
    dimension cap."""


class NotResonantError(CocycleLabError):
    """Sharpness witness requested at an order that is not resonant."""


class PoleOnPathError(CocycleLabError):
    """The generator denominator vanishes on the integration segment."""


class TailNotConvergingError(CocycleLabError):
    """The interior linearizer's time integral has no decaying tail: no z0, or Re lam <= 0."""


class OutsideConvergenceRegionError(CocycleLabError):
    """Reconstruction sample lies outside the certified convergence region."""


class ScenarioParseError(CocycleLabError):
    """Scenario file is malformed or inconsistent."""
