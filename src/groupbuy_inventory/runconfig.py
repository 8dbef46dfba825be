"""The run configuration every CLI command reads, and the helpers the
commands share.

Configuration comes from an optional flat ``key = value`` file (``#``
starts a comment) plus per-key override flags; a flag always wins over
the file. RunConfig holds the parsed keys and the records built from them.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

from .costmodel import A_MODES, CostParams, Policy
from .errors import ConfigError, Meta, ParameterError, record, replace
from .settings import DURATION_SAMPLERS, REPORT_FORMATS, SHORTFALL_RULES, SimulationConfig
from .stochastics import TD_MODES, AuctionParams

# The two CostParams fields whose config key has another name, and that key.
_RENAMED = {"unit_transport_cost": "transport_cost_per_unit", "failure_penalty": "penalty_cost"}
# The cost keys every command requires, and the CostParams field each fills.
_COST_FIELDS = {_RENAMED.get(name, name): name for name in CostParams._names}


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        # A well-formed integer fails only past the int-to-str digit limit.
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", raw):
            digits = sum(map(str.isdecimal, raw))
            raise ConfigError(
                f"{key}: the value has {digits} digits, more than "
                f"sys.get_int_max_str_digits() allows ({sys.get_int_max_str_digits()})"
            ) from None
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{key}: must not be NaN")
    # A finite literal past the float range reads as inf; only "inf" spells inf.
    if math.isinf(value) and "inf" not in raw.lower():
        raise ConfigError(f"{key}: must be within the float range, got {raw!r}")
    return value


def _bool(key: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def _one_of(choices: tuple[str, ...]):
    def parse(key: str, raw: str) -> str:
        if raw not in choices:
            raise ConfigError(f"{key}: must be one of {choices}, got {raw!r}")
        return raw

    return parse


def _ruled(convert, ok, rule: str):
    """A scalar key's parser and its sweep axis's parser, under one range rule.

    Only keys that no dataclass built for every command checks get a rule:
    sweep configs need no auction, and replications and the axes have none.
    """

    def scalar(key: str, raw: str):
        value = convert(key, raw)
        if not ok(value):
            raise ConfigError(f"{key}: {rule}, got {value}")
        return value

    def axis(key: str, raw: str) -> tuple:
        values = tuple(convert(key, part.strip()) for part in raw.split(","))
        if not all(map(ok, values)):
            raise ConfigError(f"{key}: every entry {rule}")
        return values

    return scalar, axis


_POSITIVE_INT, _POSITIVE_INTS = _ruled(_int, lambda n: n >= 1, "must be >= 1")
_WINDOW, _WINDOWS = _ruled(_float, lambda t: t > 0.0, "must be > 0 (inf allowed)")
_RATE, _RATES = _ruled(_float, lambda r: math.isfinite(r) and r > 0.0, "must be finite and > 0")


def _key(parse, default=None):
    """A config key: a RunConfig field that carries its value parser."""
    return Meta(default, parse=parse)


@record
class RunConfig:
    """Fully parsed run configuration; None means the key was not given.

    Every field made by _key is a config key and has a same-named flag,
    registered in field order; ``path``'s flag is ``--out``. A frozen,
    hashable record, as every other.
    """

    n_required: int | None = _key(_POSITIVE_INT)
    num_cycles: int = _key(_int, 20000)
    replications: int = _key(_POSITIVE_INT, 1)
    seed: int = _key(_int, SimulationConfig.seed)
    max_time: float | None = _key(_WINDOW)
    arrival_rate: float | None = _key(_RATE)
    dispatch_cost: float | None = _key(_float)
    transport_cost_per_unit: float | None = _key(_float)
    holding_rate: float | None = _key(_float)
    penalty_cost: float | None = _key(_float)
    reorder_cost: float | None = _key(_float)
    quantity: float | None = _key(_float)
    td_mode: str = _key(_one_of(TD_MODES), "paper")
    a_mode: str = _key(_one_of(A_MODES), "approx")
    shortfall_rule: str = _key(_one_of(SHORTFALL_RULES), SimulationConfig.shortfall_rule)
    duration_sampler: str = _key(_one_of(DURATION_SAMPLERS), SimulationConfig.duration_sampler)
    format: str = _key(_one_of(REPORT_FORMATS), "markdown")
    n_values: tuple[int, ...] | None = _key(_POSITIVE_INTS)
    t_values: tuple[float, ...] | None = _key(_WINDOWS)
    lambda_values: tuple[float, ...] | None = _key(_RATES)
    include_simulation: bool = _key(_bool, False)
    path: str | None = _key(lambda key, raw: raw)
    # Built from the keys above by load_run_config.
    costs: CostParams | None = None
    simulation: SimulationConfig | None = None
    policy: Policy | None = None


# Every config key and its parser, in flag order.
_PARSERS = {name: metadata["parse"] for name, metadata in RunConfig._metadata.items()}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse a flat ``key = value`` config document into raw strings.

    Blank lines are skipped and ``#`` starts a comment. Unknown keys,
    repeated keys, missing '=' and empty values are configuration errors.
    """
    values: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for key {key!r}")
        if key in line_of:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {line_of[key]}")
        line_of[key] = lineno
        values[key] = value
    return values


def load_run_config(config_path: str | None, overrides: dict[str, str]) -> RunConfig:
    """Merge a config file with flag overrides into a validated RunConfig.

    Its costs, simulation and, when quantity is given, policy are built
    from the keys; a value those constructors reject is a ConfigError.
    """
    raw: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            # utf-8-sig: a file saved with a byte-order mark reads as one without.
            text = path.read_text(encoding="utf-8-sig")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from None
        raw.update(parse_config_text(text))
    raw.update(overrides)
    cfg = RunConfig(**{key: _PARSERS[key](key, value) for key, value in raw.items()})
    _require(cfg, *_COST_FIELDS)
    keys = vars(cfg)
    try:
        return replace(
            cfg,
            costs=CostParams(**{name: keys[key] for key, name in _COST_FIELDS.items()}),
            simulation=SimulationConfig(**{name: keys[name] for name in SimulationConfig._names}),
            policy=None if cfg.quantity is None else Policy(cfg.quantity),
        )
    except ParameterError as exc:
        # Name the config key, not the CostParams field, in the message.
        message = str(exc)
        for name, key in _RENAMED.items():
            message = message.replace(name, key)
        raise ConfigError(message) from None


def _require(cfg: RunConfig, *keys: str) -> None:
    missing = [key for key in keys if getattr(cfg, key) is None]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")


def _auction_from(cfg: RunConfig) -> AuctionParams:
    _require(cfg, "n_required", "max_time", "arrival_rate")
    return AuctionParams(
        n_required=cfg.n_required,
        max_time=cfg.max_time,
        arrival_rate=cfg.arrival_rate,
    )


def _fmt_z(z: float) -> str:
    return f"{z:+.2f}" if math.isfinite(z) else "n/a"


def _scenario_lines(title: str, auction: AuctionParams, costs: CostParams) -> list[str]:
    return [
        title,
        f"  auction: n_required={auction.n_required} max_time={auction.max_time:g} "
        f"arrival_rate={auction.arrival_rate:g}",
        f"  costs: dispatch={costs.dispatch_cost:g} transport/unit={costs.unit_transport_cost:g} "
        f"holding={costs.holding_rate:g} penalty={costs.failure_penalty:g} "
        f"reorder={costs.reorder_cost:g}",
    ]
