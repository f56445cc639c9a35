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
    """A computation that needs an interior fixed point got a boundary model."""


class ZeroRateError(CocycleLabError):
    """The attraction rate -f'(z0) is numerically zero."""


class NotAttractingError(CocycleLabError, ValueError):
    """The interior fixed point does not attract: Re(-f'(z0)) <= 0."""


class OutOfDomainError(CocycleLabError, ValueError):
    """Evaluation point lies outside the open unit disk."""


class DomainEscapeError(CocycleLabError):
    """An integrated trajectory left the unit disk (invalid generator input)."""


class VNotInvertibleError(CocycleLabError):
    """V(t0, z) is not invertible at the points ``singular`` marks (``partial``
    holds B at the others); retry them with a smaller t0."""

    def __init__(self, message, partial=None, singular=None):
        super().__init__(message)
        self.partial, self.singular = partial, singular


class NotInvariantError(CocycleLabError):
    """A sampled trajectory exited the disk the growth report assumes invariant."""


class DimensionTooLargeError(CocycleLabError, ValueError):
    """The n^2 x n^2 commutator matrix ad_B0 was requested above the
    dimension cap."""


class NotResonantError(CocycleLabError):
    """Sharpness witness requested at an order that is not resonant."""


class PoleOnPathError(CocycleLabError):
    """The no-fixed-point transfer map got an f with a zero in the disk."""


class OutsideConvergenceRegionError(CocycleLabError):
    """Reconstruction sample lies outside the certified convergence region."""


class ScenarioParseError(CocycleLabError):
    """Scenario file is malformed or inconsistent."""
