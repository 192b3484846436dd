"""Exception hierarchy shared across the package.

Invalid arguments to the measure algebra, the optimizer and the value
types raise the built-in ValueError.  The classes below exist because a
handler or an exit code depends on them.
"""


class OUQError(Exception):
    """Base class for all package errors."""


class ConfigError(OUQError):
    """The run configuration cannot be parsed, validated or resolved."""


class ConstraintViolation(OUQError):
    """A trial parameter vector cannot be made feasible.

    Raised by `constrain_params`, the one-vector form of the band repair.
    The block repair that `ouq_solve` runs raises none: it marks such rows
    False in the mask it hands the optimizer.
    """


class ZeroMassMeasure(ConstraintViolation):
    """All weights of a discrete measure are zero; normalization is undefined."""


class InfeasibleConstrain(OUQError):
    """No member of the initial population survived the constraint function."""


class DomainError(OUQError):
    """Surrogate input outside the mathematical domain of the formula."""
