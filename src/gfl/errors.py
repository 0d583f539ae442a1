"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 2, PreconditionError -> 3.
"""


class GflError(Exception):
    """Base class for all package errors."""


class ConfigError(GflError):
    """Malformed input: bad config keys, unreadable files, invalid argv."""


class PreconditionError(GflError):
    """An input outside a theorem's domain: a delta outside a bound's range.

    This is the only precondition that raises.  Every other failed condition
    (an m_min / lambda window, B <= L) is evaluated anyway and listed in the
    bound's result.
    """


class UnsupportedModelError(GflError):
    """Loss/noise pairing that the theory does not cover."""
