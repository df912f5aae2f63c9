"""Exception hierarchy.

Every failure raised by this package derives from :class:`SempowerError`,
so callers can catch a single type. Where a builtin fits, the subclass
also inherits it (ValueError) to stay friendly to generic
handlers.
"""


class SempowerError(Exception):
    """Base class for every error raised by this package."""


class DomainError(SempowerError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularityError(SempowerError, ValueError):
    """A derivative was requested at a point where it does not exist."""


class InfeasibleError(SempowerError, ValueError):
    """The requested target cannot be met by any allocation."""


class ConfigError(SempowerError, ValueError):
    """A configuration or input file is malformed or unresolvable."""


class SempowerWarning(UserWarning):
    """Non-fatal numerical findings (cross-check disagreements)."""
