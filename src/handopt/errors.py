"""Exception types shared across the package."""


class HandoptError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HandoptError):
    """Invalid scenario, channel or problem configuration."""


class NumericalConsistencyError(HandoptError):
    """An internally computed quantity violates a structural invariant.

    Raised e.g. when a covariance matrix fails the positive-semidefinite
    check beyond tolerance, or when a probability assembly produces a
    value outside [0, 1] by more than numerical slack.
    """


class DegenerateConditioningError(HandoptError):
    """A conditional probability was requested against a near-zero event."""
