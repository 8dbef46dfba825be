"""Exception hierarchy for the replenishment toolkit.

Every error raised by this package derives from GroupBuyError, so callers
can catch one base class; the leaf classes also subclass the closest
builtin (ValueError or ArithmeticError). check_choice, check_int,
check_positive and check_float hold the one check of a mode argument, of
an integer, of a finite positive number and of an int passed as a float,
int_text is the one way a message shows a caller's integer, record is the
one way to declare a frozen record, RunConfig included, and replace is the
one way to copy a record with changes.
"""

import math
from operator import attrgetter


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


def check_int(name: str, value: int, low: int | None = None, high: float | None = None) -> None:
    """Raise ParameterError unless value is an int, not a bool, and within [low, high]."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParameterError(f"{name} must be an integer")
    if low is not None and value < low:
        raise ParameterError(f"{name} must be >= {low}, got {int_text(value)}")
    if high is not None and value > high:
        raise ParameterError(f"{name} must be <= {high!r}")


def check_positive(name: str, value: float, error: type = ParameterError) -> None:
    """Raise error, naming the value, unless value is finite and > 0."""
    if not math.isfinite(value) or value <= 0.0:
        raise error(f"{name} must be finite and > 0, got {value!r}")


def check_float(name: str, value: float, error: type = ParameterError) -> None:
    """Raise error, naming the value, when value is an int past the float range.

    float(), math.isfinite and math.isnan raise OverflowError for such an
    int. The records and the kernel, built and called for every sweep cell,
    call this only once math has raised it, so a float costs them nothing.
    """
    try:
        float(value)
    except OverflowError:
        raise error(f"{name} must be within the float range, got {int_text(value)}") from None


def int_text(value: int) -> str:
    """value in decimal, or in e-notation past Python's int-to-str digit limit.

    Past the limit (sys.get_int_max_str_digits()) str raises ValueError, so
    the text is the first three digits, truncated, as in -1.23e+5000.
    """
    try:
        return str(value)
    except ValueError:
        # floor(log10 |value|) less 3, give or take one: lead holds 3 to 6 digits.
        shift = int((abs(value).bit_length() - 1) * math.log10(2)) - 3
        lead = str(abs(value) // 10**shift)
        return f"{'-' if value < 0 else ''}{lead[0]}.{lead[1:3]}e+{shift + len(lead) - 1}"


def _eq(self, other):
    if other.__class__ is self.__class__:
        return self._values(self) == other._values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(self._values(self))


def _repr(self) -> str:
    pairs = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._values(self)))
    return f"{self.__class__.__qualname__}({pairs})"


def _frozen(self, name, *value) -> None:
    # __setattr__ (with a value) and __delattr__; only this error path loads dataclasses.
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _name_the_overflow(self) -> None:
    # __post_init__ raised OverflowError: math met an int past the float range.
    for name, value in zip(self._names, self._values(self)):
        if isinstance(value, int):
            check_float(name, value)


class Meta:
    """A record field's default with metadata, which dataclasses.fields shows."""

    def __init__(self, default, **metadata) -> None:
        self.default, self.metadata = default, metadata


class _DataclassAttribute:
    """__dataclass_fields__ or __dataclass_params__: the first read of either runs
    dataclass() on a throwaway class with the record's fields and sets both on
    the record, in place of both descriptors. The record's methods stay its own."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __get__(self, obj, cls):
        from dataclasses import MISSING, dataclass, field

        namespace = {name: field(default=cls.__dict__.get(name, MISSING),
                                 metadata=cls._metadata.get(name)) for name in cls._names}
        namespace.update(__annotations__=cls.__annotations__, __module__=cls.__module__,
                         __qualname__=cls.__qualname__, __doc__=cls.__doc__)
        shadow = dataclass(frozen=True, init=False, repr=False, eq=False)(
            type(cls.__name__, (), namespace))
        cls.__dataclass_fields__ = shadow.__dataclass_fields__
        cls.__dataclass_params__ = shadow.__dataclass_params__
        return getattr(cls, self.name)


def replace(obj, **changes):
    """A copy of the record obj with the named fields changed, as dataclasses.replace."""
    return obj.__class__(**dict(zip(obj._names, obj._values(obj)), **changes))


def record(cls: type) -> type:
    """Make cls a frozen record with the frozen-dataclass contract, without dataclasses.

    The fields are cls's annotations in order (_names, also __match_args__);
    a class attribute is a field's default, a Meta its default and metadata.
    The __init__ takes dataclass's parameters, fills self.__dict__ in one
    update (0.9 us for 12 fields; the dict shares no keys, so reads stay
    fast, at about 340 bytes more per record), then calls __post_init__ when the
    class has one; an OverflowError from it, math meeting an int past the
    float range, becomes check_float's error for the first such int field.
    ==, hash and repr are shared functions that read the fields as one tuple
    through the class's attrgetter: == compares tuples and returns
    NotImplemented for another class, hash is the tuple's and repr is
    ``QualName(f=v!r, ...)``; __replace__ is replace, which copy.replace
    calls from Python 3.13 on. Assignment and deletion raise dataclass's
    FrozenInstanceError and messages. __dataclass_fields__ and
    __dataclass_params__ are built on first read, so dataclasses.fields,
    replace, asdict and is_dataclass work; pickle and copy need neither.
    A 12-field record builds in 0.14 ms (best of 50), and the package's 11
    records in about 1.8 ms (Python 3.11, 2-vCPU Xeon).
    """
    cls._names = cls.__match_args__ = names = tuple(cls.__annotations__)
    cls._metadata = {}
    namespace: dict = {"_name_the_overflow": _name_the_overflow}
    params = []
    for name in names:
        if name not in cls.__dict__:
            params.append(name)
            continue
        default = cls.__dict__[name]
        if isinstance(default, Meta):
            cls._metadata[name], default = default.metadata, default.default
            setattr(cls, name, default)
        namespace[f"_default_{name}"] = default
        params.append(f"{name}=_default_{name}")
    values = attrgetter(*names)
    cls._values = staticmethod(values if len(names) > 1 else lambda obj: (values(obj),))
    cls.__eq__, cls.__hash__, cls.__repr__, cls.__replace__ = _eq, _hash, _repr, replace
    cls.__setattr__ = cls.__delattr__ = _frozen
    for name in ("__dataclass_fields__", "__dataclass_params__"):
        setattr(cls, name, _DataclassAttribute(name))
    items = ", ".join(f"{name!r}: {name}" for name in names)
    post_init = (
        "\n    try:\n        self.__post_init__()\n    except OverflowError:\n"
        "        _name_the_overflow(self)\n        raise"
        if hasattr(cls, "__post_init__") else ""
    )
    exec(f"def __init__(self, {', '.join(params)}):\n"
         f"    self.__dict__.update({{{items}}}){post_init}\n", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls
