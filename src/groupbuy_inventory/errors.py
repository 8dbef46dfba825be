"""Exception hierarchy for the replenishment toolkit.

Every error raised by this package derives from GroupBuyError, so callers
can catch one base class; the leaf classes also subclass the closest
builtin (ValueError or ArithmeticError). check_choice and check_int hold
the one check of a mode argument and of an integer argument.
"""


class GroupBuyError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(GroupBuyError, ValueError):
    """An argument value violates an operation's contract."""


class DomainError(GroupBuyError, ValueError):
    """A numeric input lies outside the mathematical domain of an operation."""


class NumericsError(GroupBuyError, ArithmeticError):
    """A numeric routine could not produce a trustworthy result."""


class DegenerateAuctionError(NumericsError):
    """The auction success probability underflowed to an unusable value.

    Raised when p_success drops below 1e-300, at which point expected
    failure counts and dispatch times overflow double precision and every
    downstream quantity is meaningless.
    """


class ConfigError(GroupBuyError, ValueError):
    """A run configuration (CLI flags or config file) failed validation."""


def check_choice(name: str, value: str, choices: tuple[str, ...]) -> None:
    """Raise ParameterError unless value is one of choices."""
    if value not in choices:
        raise ParameterError(f"{name} must be one of {choices}, got {value!r}")


def check_int(name: str, value: int, low: int | None = None) -> None:
    """Raise ParameterError unless value is an int, not a bool, and not below low."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer")
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {value}")
