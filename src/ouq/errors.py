"""Exception hierarchy shared across the package.

Invalid arguments to the measure algebra, the optimizer and the value
types raise the built-in ValueError.  The classes below exist because a
handler or an exit code depends on them.
"""


class OUQError(Exception):
    """Base class for all package errors."""


class ConfigError(OUQError):
    """The run configuration cannot be parsed, validated or resolved."""


class InfeasibleConstrain(OUQError):
    """No member of the initial population survived the constraint function."""


class DomainError(OUQError):
    """Surrogate input outside the mathematical domain of the formula."""
