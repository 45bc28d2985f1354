"""Exception types common to the solver modules."""


class LinkagesError(Exception):
    """Base class for all package errors."""


class HypothesisViolation:
    """A single failed modelling-hypothesis check.

    Not an exception itself: validation collects every violation and raises
    one ConfigError carrying the full list.
    """

    def __init__(self, name, location=""):
        self.name = name
        self.location = location

    def __repr__(self):
        loc = f" at {self.location}" if self.location else ""
        return f"HypothesisViolation({self.name!r}{loc})"

    def __eq__(self, other):
        return (
            isinstance(other, HypothesisViolation)
            and (self.name, self.location) == (other.name, other.location)
        )


class ConfigError(LinkagesError):
    """Configuration failed hypothesis validation or could not be parsed."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(repr(v) for v in self.violations) or "invalid configuration")


class DegenerateOperator(LinkagesError):
    """Zero-coefficient, zero-diffusion elliptic operator cannot be solved."""


class DegenerateFriction(LinkagesError):
    """Friction coefficient fell below the floor somewhere but not everywhere."""


class NegativeDensity(LinkagesError):
    """Initial bond density has negative values."""


class MassAtLeastOne(LinkagesError):
    """Initial bond population reaches or exceeds the saturation value 1."""


class RateKindMismatch(ConfigError):
    """A rate model was evaluated through the interface of the other kind.

    The drivers evaluate the off-rate before they write anything, so a config
    whose rate kind does not fit the model that runs ends as a config error.
    """

    def __init__(self, message):
        super().__init__([HypothesisViolation("rate model kind", message)])


class NonfiniteValue(LinkagesError):
    """A field evaluation produced NaN or infinity."""


class GridMismatch(LinkagesError):
    """Two trajectories do not share the same space-time sample grid."""


class NonpositiveGamma1(LinkagesError):
    """The reciprocal stability bound must be positive."""
