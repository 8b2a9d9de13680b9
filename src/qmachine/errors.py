"""Exception types shared across the package.

ValueError is reserved for malformed parameters (out-of-range epsilon,
non-unit vectors, ...).  DomainError and its subclasses signal that a
structurally valid request has no answer in the model, which the CLI maps
to a distinct exit code.
"""


class DomainError(Exception):
    """A well-formed computation left the domain where it is defined."""


class ConditioningError(DomainError):
    """Conditioning on an outcome that cannot be prepared with certainty."""


class QuadratureError(DomainError):
    """Adaptive quadrature could not reach the requested tolerance (quadrature.py only)."""


class InconsistentDataError(DomainError):
    """Observed fractions cannot be produced by any parameter choice."""
