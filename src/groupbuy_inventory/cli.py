"""Command-line interface: optimize, simulate, sweep and validate.

Configuration comes from an optional flat ``key = value`` file (``#``
starts a comment) plus per-key override flags; a flag always wins over
the file. All reports are plain deterministic text on stdout, or written
to the file named by ``path`` / ``--out``.

The command line ``COMMAND [CONFIG] (--KEY VALUE)*``, with exact flag
names, each key once and no CONFIG or VALUE that starts with '-', is read
without argparse, whose import (with gettext and locale) and set-up cost
several milliseconds of every launch. argparse reads everything else
(``--help``, usage errors, a flag given twice, ``--key=value``,
abbreviated flags, values such as ``-1``), so those keep its behaviour.

Exit codes: 0 success, 1 validation checks failed, 2 configuration
error (including a usage error, a config file that cannot be read and a
report that cannot be written), 3 numeric domain error, 4 sweep finished
with failed cells.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

from .costmodel import (
    A_MODES,
    CostParams,
    Policy,
    _optimum,
    best_integer_quantity,
    check_optimizable,
    cost_rate_terms,
    cycle_cost_breakdown,
    eoq_limit,
    long_run_average_cost,
    optimal_quantity,
)
from .errors import ConfigError, DomainError, NumericsError, ParameterError
from .settings import DURATION_SAMPLERS, REPORT_FORMATS, SHORTFALL_RULES, SimulationConfig
from .stochastics import (
    AuctionParams,
    AuctionStatistics,
    TD_MODES,
    auction_statistics,
    select_dispatch_time,
)

# The commands that simulate or sweep import the simulator or the sweep
# themselves, so each command loads only the modules it runs.
if TYPE_CHECKING:
    import argparse

    from .simulator import SimulationResult

# The cost keys every command requires, and the CostParams field each fills.
_COST_FIELDS = {
    "dispatch_cost": "dispatch_cost",
    "transport_cost_per_unit": "unit_transport_cost",
    "holding_rate": "holding_rate",
    "penalty_cost": "failure_penalty",
    "reorder_cost": "reorder_cost",
}


def _int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None


def _float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if math.isnan(value):
        raise ConfigError(f"{key}: must not be NaN")
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
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """Fully parsed run configuration; None means the key was not given.

    Every field made by _key is a config key and has a same-named flag,
    registered in field order; ``path``'s flag is ``--out``.
    """

    n_required: int | None = _key(_POSITIVE_INT)
    num_cycles: int = _key(_int, 20000)
    replications: int = _key(_POSITIVE_INT, 1)
    seed: int = _key(_int, 0)
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
    shortfall_rule: str = _key(_one_of(SHORTFALL_RULES), "reset_to_q")
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
_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig) if "parse" in f.metadata}


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

    Builds cfg.costs, cfg.simulation and, when quantity is given,
    cfg.policy; a value those constructors reject is a ConfigError.
    """
    raw: dict[str, str] = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {config_path}")
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from None
        raw.update(parse_config_text(text))
    raw.update(overrides)
    cfg = RunConfig()
    for key, value in raw.items():
        setattr(cfg, key, _PARSERS[key](key, value))
    _require(cfg, *_COST_FIELDS)
    try:
        cfg.costs = CostParams(**{name: getattr(cfg, key) for key, name in _COST_FIELDS.items()})
        cfg.simulation = SimulationConfig(
            cfg.num_cycles, cfg.seed, cfg.shortfall_rule, cfg.duration_sampler
        )
        if cfg.quantity is not None:
            cfg.policy = Policy(cfg.quantity)
    except ParameterError as exc:
        # Name the config key, not the CostParams field, in the message.
        message = str(exc)
        for key, name in _COST_FIELDS.items():
            message = message.replace(name, key)
        raise ConfigError(message) from None
    return cfg


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


def _require_optimizable(costs: CostParams) -> None:
    try:
        check_optimizable(costs, "optimizing the quantity")
    except ParameterError as exc:
        raise ConfigError(str(exc)) from None


def _scenario_lines(auction: AuctionParams, costs: CostParams) -> list[str]:
    return [
        f"  auction: n_required={auction.n_required} max_time={auction.max_time:g} "
        f"arrival_rate={auction.arrival_rate:g}",
        f"  costs: dispatch={costs.dispatch_cost:g} transport/unit={costs.unit_transport_cost:g} "
        f"holding={costs.holding_rate:g} penalty={costs.failure_penalty:g} "
        f"reorder={costs.reorder_cost:g}",
    ]


def _stat_line(label: str, value: float) -> str:
    return f"  {label:<28} {value:>12.4f}   ({value!r})"


def _fmt_z(z: float) -> str:
    return f"{z:+.2f}" if math.isfinite(z) else "n/a"


def _z(estimate: float, value: float, se: float) -> float:
    """Distance of an estimate from its analytic value in standard errors."""
    return (estimate - value) / se if se > 0 else math.nan


def cmd_optimize(cfg: RunConfig) -> tuple[str, int]:
    """Closed-form report: auction statistics, Q*, cost breakdown."""
    auction = _auction_from(cfg)
    costs = cfg.costs
    _require_optimizable(costs)
    stats = auction_statistics(auction)
    n = auction.n_required
    _, q_star, q_int, cost_star = _optimum(stats, costs, n, cfg.td_mode)
    cost_int = long_run_average_cost(stats, costs, Policy(float(q_int)), n, cfg.td_mode, "approx")
    policy = Policy(q_star)
    terms = cost_rate_terms(stats, costs, policy, n, cfg.td_mode)
    breakdown = cycle_cost_breakdown(stats, costs, policy, n, cfg.td_mode, cfg.a_mode)

    lines = ["replenishment optimization report"]
    lines += _scenario_lines(auction, costs)
    lines.append(f"  modes: td_mode={cfg.td_mode} a_mode={cfg.a_mode}")
    lines.append("")
    lines.append("auction statistics")
    lines.append(_stat_line("success probability", stats.p_success))
    lines.append(_stat_line("truncated mean duration", stats.e_min_duration))
    lines.append(_stat_line("conditional mean duration", stats.e_cond_duration))
    lines.append(_stat_line("expected failures", stats.expected_failures))
    lines.append(_stat_line("dispatch time (paper)", stats.dispatch_time_paper))
    lines.append(_stat_line("dispatch time (consistent)", stats.dispatch_time_consistent))
    lines.append("")
    lines.append(f"optimal policy (td_mode={cfg.td_mode})")
    lines.append(_stat_line("optimal quantity", q_star))
    lines.append(f"  {'best integer quantity':<28} {q_int:>12d}")
    lines.append(_stat_line("optimal cost rate", cost_star))
    lines.append(_stat_line("cost rate at best integer", cost_int))
    lines.append(_stat_line("eoq limit (window -> inf)", eoq_limit(costs, auction.arrival_rate)))
    lines.append("")
    lines.append("cost rate terms at the optimum (per time unit, approx dispatches)")
    for name, value in terms.items():
        lines.append(f"  {name:<20} {value:>14.6f}")
    lines.append("")
    lines.append(f"cycle view at the optimum (a_mode={cfg.a_mode})")
    lines.append(f"  {'cycle length':<20} {breakdown.cycle_length:>14.6f}")
    lines.append(f"  {'cycle cost':<20} {breakdown.cycle_total:>14.6f}")
    lines.append(f"  {'holding':<20} {breakdown.holding:>14.6f}")
    lines.append(f"  {'dispatching':<20} {breakdown.dispatching:>14.6f}")
    lines.append(f"  {'transport':<20} {breakdown.transport:>14.6f}")
    lines.append(f"  {'penalty':<20} {breakdown.penalty:>14.6f}")
    lines.append(f"  {'reorder':<20} {breakdown.reorder:>14.6f}")
    return "\n".join(lines) + "\n", 0


def _result_block(title: str, result: SimulationResult) -> list[str]:
    counts = result.counts
    return [
        title,
        f"  p_hat                      {result.p_hat:>12.6f}   (se {result.p_hat_se:.3e})",
        f"  mean dispatch interval     {result.mean_dispatch_interval:>12.6f}   "
        f"(se {result.mean_dispatch_interval_se:.3e})",
        f"  mean cycle length          {result.mean_cycle_length:>12.6f}   "
        f"(se {result.mean_cycle_length_se:.3e})",
        f"  mean cycle cost            {result.mean_cycle_cost:>12.6f}   "
        f"(se {result.mean_cycle_cost_se:.3e})",
        f"  long-run cost rate         {result.long_run_cost:>12.6f}   "
        f"(95% halfwidth {result.long_run_cost_halfwidth:.3e})",
        f"  counts: auctions={counts.auctions} failures={counts.failures} "
        f"dispatches={counts.dispatches} cycles={counts.cycles}",
    ]


def _analytic_comparison(
    result: SimulationResult, stats: AuctionStatistics, costs: CostParams, policy: Policy, n: int
) -> dict[tuple[str, str | None, str | None], tuple[float, float]]:
    """Analytic value and z of each simulated estimate, in report order.

    Keyed by (quantity, td_mode, a_mode), None where a mode does not apply:
    the success probability, the dispatch time in both td modes and the
    cost rate in every td x a mode pair.
    """
    p = stats.p_success
    rows = {("p_success", None, None): (p, _z(result.p_hat, p, result.p_hat_se))}
    for td_mode in TD_MODES:
        value = select_dispatch_time(stats, td_mode)
        rows["dispatch time", td_mode, None] = (
            value, _z(result.mean_dispatch_interval, value, result.mean_dispatch_interval_se)
        )
    for td_mode in TD_MODES:
        for a_mode in A_MODES:
            value = long_run_average_cost(stats, costs, policy, n, td_mode, a_mode)
            rows["cost rate", td_mode, a_mode] = (
                value, _z(result.long_run_cost, value, result.long_run_cost_se)
            )
    return rows


def cmd_simulate(cfg: RunConfig) -> tuple[str, int]:
    """Monte Carlo run plus side-by-side analytic comparison."""
    from .simulator import replicate

    auction = _auction_from(cfg)
    costs = cfg.costs
    _require(cfg, "quantity")
    policy = cfg.policy
    results = replicate(auction, costs, policy, cfg.simulation, cfg.replications)
    stats = auction_statistics(auction)
    n = auction.n_required

    lines = ["simulation report"]
    lines += _scenario_lines(auction, costs)
    lines.append(
        f"  policy: quantity={policy.quantity:g} shortfall_rule={cfg.shortfall_rule}"
    )
    lines.append(
        f"  run: cycles={cfg.num_cycles} seed={cfg.seed} sampler={cfg.duration_sampler} "
        f"replications={cfg.replications}"
    )
    lines.append("")
    for index, result in enumerate(results):
        lines += _result_block(f"stream {index}", result)
        lines.append("")

    lines.append("analytic comparison, stream 0 (z in standard errors)")
    comparison = _analytic_comparison(results[0], stats, costs, policy, n)
    for (quantity, td_mode, a_mode), (value, z) in comparison.items():
        label = quantity if td_mode is None else f"{quantity} td={td_mode:<11}"
        if a_mode is not None:
            label += f" a_mode={a_mode:<7}"
        lines.append(f"  {label:<27}{value:>12.6f}   z={_fmt_z(z)}")
    if cfg.replications > 1:
        costs_across = [r.long_run_cost for r in results]
        try:
            mean = math.fsum(costs_across) / len(costs_across)
            var = math.fsum((c - mean) ** 2 for c in costs_across) / (len(costs_across) - 1)
        except OverflowError:
            raise NumericsError("replication summary of the long-run cost is not finite") from None
        lines.append("")
        lines.append(
            f"replication summary: long-run cost mean {mean:.6f} sd {math.sqrt(var):.6f} "
            f"({len(costs_across)} streams)"
        )
    return "\n".join(lines) + "\n", 0


def cmd_sweep(cfg: RunConfig) -> tuple[str, int]:
    """Grid evaluation; one stderr line per failed cell, and exit 4 if any."""
    from .sweep import SweepSpec, emit_report, run_sweep

    _require_optimizable(cfg.costs)
    _require(cfg, "n_values", "t_values", "lambda_values")
    spec = SweepSpec(
        n_values=cfg.n_values,
        t_values=cfg.t_values,
        lambda_values=cfg.lambda_values,
        costs=cfg.costs,
        td_mode=cfg.td_mode,
        simulation=cfg.simulation if cfg.include_simulation else None,
    )
    rows = run_sweep(spec)
    text = emit_report(rows, cfg.format)
    failed = [row for row in rows if row.error is not None]
    # Only the markdown report names a failed cell's reason; stderr always does.
    for row in failed:
        cell = f"n={row.n} t={row.t:g} lambda={row.arrival_rate:g}"
        print(f"sweep: {cell}: {row.error}", file=sys.stderr)
    return text, 4 if failed else 0


# Frozen reference values for the validation suite: the base scenario (the
# grid's middle cell) and the 3x3 (n_required, max_time) grid at arrival
# rate 14 with costs dispatch=40, transport/unit=4, holding=0.02,
# penalty=10, reorder=300.
_REFERENCE_RATE = 14.0
_REFERENCE_AUCTION = AuctionParams(n_required=100, max_time=7.0, arrival_rate=_REFERENCE_RATE)
_REFERENCE_COSTS = CostParams(
    dispatch_cost=40.0,
    unit_transport_cost=4.0,
    holding_rate=0.02,
    failure_penalty=10.0,
    reorder_cost=300.0,
)
# (n_required, max_time): (success probability, paper dispatch time,
# best integer quantity, optimal cost rate). The cost rates are
# informational only: they are not reproducible from the reference inputs,
# so their deltas are reported without a pass/fail judgement.
_REFERENCE_GRID = {
    (80, 6.0): (0.6834, 8.3539, 536, 53.9714),
    (80, 7.0): (0.9723, 5.9060, 637, 72.8599),
    (80, 8.0): (0.9994, 5.7192, 648, 74.9544),
    (100, 6.0): (0.0484, 123.94, 156, 9.1673),
    (100, 7.0): (0.4333, 15.938, 434, 37.4780),
    (100, 8.0): (0.8826, 8.1614, 606, 65.9756),
    (120, 6.0): (0.0001, 46989.0, 9, 3.0524),
    (120, 7.0): (0.0172, 406.81, 94, 5.7391),
    (120, 8.0): (0.2368, 33.681, 327, 23.8377),
}
# This low-probability cell amplifies roundoff in its displayed reference
# values, so it gets looser comparison bounds.
_SENSITIVE_CELL = (120, 6.0)


def cmd_validate(cfg: RunConfig) -> tuple[str, int]:
    """Fidelity suite against frozen references plus simulation cross-checks.

    The closed-form checks always run on the frozen reference scenario.
    The simulation cross-checks run on the configured scenario with the
    reset_to_q shortfall rule (the analytic model describes that rule),
    at the configured quantity or, when absent, the best integer optimum.
    """
    from .simulator import simulate

    auction = _auction_from(cfg)
    costs = cfg.costs
    _require_optimizable(costs)
    # Simulate first, so that its checks refuse a run before the grid work.
    stats = auction_statistics(auction)
    n = auction.n_required
    if cfg.policy is not None:
        policy = cfg.policy
        quantity_origin = "config"
    else:
        policy = Policy(float(best_integer_quantity(stats, costs, n, cfg.td_mode)))
        quantity_origin = "best integer optimum"
    result = simulate(auction, costs, policy, replace(cfg.simulation, shortfall_rule="reset_to_q"))

    checks: list[tuple[str, str]] = []

    def check(passed: bool, text: str) -> None:
        checks.append(("PASS" if passed else "FAIL", text))

    def info(text: str) -> None:
        checks.append(("INFO", text))

    ref_stats = auction_statistics(_REFERENCE_AUCTION)
    ref_n = _REFERENCE_AUCTION.n_required
    ref_p, _, ref_q_int, _ = _REFERENCE_GRID[ref_n, _REFERENCE_AUCTION.max_time]
    _, base_q_star, base_q_int, _ = _optimum(ref_stats, _REFERENCE_COSTS, ref_n, "paper")
    for label, computed, expected, tol in (
        ("success probability", ref_stats.p_success, ref_p, 5e-5),
        ("truncated mean duration", ref_stats.e_min_duration, 6.7829, 1e-3),
        ("dispatch time", ref_stats.dispatch_time_paper, 15.9376, 1e-3),
        ("optimal quantity", base_q_star, 433.8597, 1e-3),
        ("integer quantity", base_q_int, ref_q_int, 0),
    ):
        check(
            abs(computed - expected) <= tol,
            f"base {label} {computed:.6f} vs {expected} (tol {tol:.0e})"
            if tol
            else f"base {label} {computed} vs {expected}",
        )

    # One pass over the reference grid, in the paper td mode of the references.
    worst_p = worst_td = worst_consistency = 0.0
    td_ok = scan_ok = True
    mismatches: list[str] = []
    cost_deltas: list[str] = []
    for cell, (p_ref, td_ref, q_ref, cost_ref) in _REFERENCE_GRID.items():
        n_cell, t_cell = cell
        cell_stats = auction_statistics(AuctionParams(n_cell, t_cell, _REFERENCE_RATE))

        def cost_at(quantity: float) -> float:
            return long_run_average_cost(
                cell_stats, _REFERENCE_COSTS, Policy(float(quantity)), n_cell, "paper", "approx"
            )

        worst_p = max(worst_p, abs(cell_stats.p_success - p_ref))
        td_rel = abs(cell_stats.dispatch_time_paper - td_ref) / td_ref
        worst_td = max(worst_td, td_rel)
        td_ok = td_ok and td_rel <= (0.05 if cell == _SENSITIVE_CELL else 0.01)
        _, q_star, q_int, closed = _optimum(cell_stats, _REFERENCE_COSTS, n_cell, "paper")
        if abs(q_int - q_ref) > (1 if cell == _SENSITIVE_CELL else 0):
            mismatches.append(f"n={n_cell} t={t_cell:g}: {q_int} vs {q_ref}")
        worst_consistency = max(worst_consistency, abs(closed - cost_at(q_star)) / closed)
        best_cost = cost_at(q_int)
        scan_ok = scan_ok and not any(
            cost_at(candidate) < best_cost * (1.0 - 1e-12)
            for candidate in range(max(1, q_int - 50), q_int + 51)
        )
        cost_deltas.append(f"n={n_cell} t={t_cell:g}: {closed - cost_ref:+.4f}")

    check(worst_p <= 5e-5, f"grid success probability: max abs delta {worst_p:.2e} (tol 5e-05, 9 cells)")
    check(td_ok, f"grid dispatch time: max rel delta {worst_td:.2e} (tol 1e-02, loose cell 5e-02)")
    check(
        not mismatches,
        "grid integer quantity mismatches: " + "; ".join(mismatches)
        if mismatches
        else "grid integer quantity: all 9 cells match",
    )
    # The two routes agree to roundoff, so only the verdict is printed when
    # they pass: the value itself would move with last-digit changes.
    routes_agree = worst_consistency <= 1e-9
    check(
        routes_agree,
        "closed-form vs direct cost at Q*: all 9 cells within 1e-09"
        if routes_agree
        else f"closed-form vs direct cost at Q*: max rel delta {worst_consistency:.2e} (tol 1e-09)",
    )
    check(scan_ok, "integer scan: no cheaper quantity within +/-50 of the optimum (9 cells)")

    long_window = replace(_REFERENCE_AUCTION, max_time=1e5)
    q_long = optimal_quantity(auction_statistics(long_window), _REFERENCE_COSTS, ref_n, "paper")
    eoq = eoq_limit(_REFERENCE_COSTS, _REFERENCE_RATE)
    eoq_rel = abs(q_long - eoq) / eoq
    check(eoq_rel <= 1e-3, f"eoq limit: rel delta {eoq_rel:.2e} at max_time=1e5 (tol 1e-03)")

    comparison = _analytic_comparison(result, stats, costs, policy, n)
    for key, text in (
        (("p_success", None, None), "simulated success rate"),
        (("dispatch time", "consistent", None), "simulated dispatch interval vs consistent mode"),
        (("cost rate", "consistent", "exact"), "simulated cost rate vs consistent/exact analytic"),
    ):
        z = comparison[key][1]
        check(math.isfinite(z) and abs(z) <= 4.0, f"{text}: z={_fmt_z(z)} (|z| <= 4)")
    se_interval = result.mean_dispatch_interval_se
    td_gap = stats.dispatch_time_paper - stats.dispatch_time_consistent
    if se_interval > 0 and td_gap > 6.0 * se_interval:
        z_paper = comparison["dispatch time", "paper", None][1]
        check(
            z_paper < -3.0,
            f"dispatch-interval adjudication: z vs paper mode {_fmt_z(z_paper)} < -3 "
            "(simulation sides with the consistent mode)",
        )
    else:
        info("dispatch-time modes statistically indistinguishable at this run length")

    info(
        f"duration semantics on configured scenario: truncated {stats.e_min_duration:.6f} vs "
        f"conditional {stats.e_cond_duration:.6f}; dispatch time paper "
        f"{stats.dispatch_time_paper:.6f} vs consistent {stats.dispatch_time_consistent:.6f}"
    )
    info("reference cost-rate grid deltas (computed - reference): " + "; ".join(cost_deltas))

    lines = ["validation report"]
    lines += _scenario_lines(auction, costs)
    lines.append(
        f"  simulation: cycles={cfg.num_cycles} seed={cfg.seed} quantity={policy.quantity:g} "
        f"({quantity_origin}) sampler={cfg.duration_sampler} shortfall_rule=reset_to_q"
    )
    lines.append("")
    tally = dict.fromkeys(("PASS", "FAIL", "INFO"), 0)
    for status, text in checks:
        tally[status] += 1
        lines.append(f"[{status}] {text}")
    lines.append("")
    lines.append(
        f"summary: {tally['PASS']} passed, {tally['FAIL']} failed, {tally['INFO']} informational"
    )
    return "\n".join(lines) + "\n", 0 if tally["FAIL"] == 0 else 1


_COMMANDS = {
    "optimize": cmd_optimize,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "validate": cmd_validate,
}


# Every config-key flag and its key, in the order build_parser registers them:
# the keys' own flags, then --cycles and --out.
_FLAGS = {
    **{f"--{key.replace('_', '-')}": key for key in _PARSERS if key != "path"},
    "--cycles": "num_cycles",
    "--out": "path",
}


def _read_command_line(argv: list[str]) -> tuple[str, str | None, dict[str, str]] | None:
    """(command, config, overrides) of ``COMMAND [CONFIG] (--KEY VALUE)*``, or None.

    Accepts only exact flags of _FLAGS, each key at most once (--cycles and
    --num-cycles are one key), and no CONFIG or value that starts with '-';
    the overrides follow _PARSERS' order, as argparse's namespace does.
    None leaves the line to build_parser, which reads every other form.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    command, *rest = argv
    config = None
    if rest and not rest[0].startswith("-"):
        config, *rest = rest
    if len(rest) % 2:
        return None
    given: dict[str, str] = {}
    for flag, value in zip(rest[::2], rest[1::2]):
        key = _FLAGS.get(flag)
        if key is None or key in given or value.startswith("-"):
            return None
        given[key] = value
    return command, config, {key: given[key] for key in _PARSERS if key in given}


def build_parser(command: str) -> argparse.ArgumentParser:
    """The CLI's parser, with every command and the config-key flags of one.

    Only the subparser named ``command`` gets the config file and flags:
    the others need only exist, for the command list in ``--help`` and the
    "invalid choice" error. argparse is imported here, so only a command
    line that _read_command_line leaves to it loads argparse.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors (unknown flag, missing value, unknown command) exit 2."""

        def error(self, message):
            raise ConfigError(message)

    class StoreOnce(argparse.Action):
        """Store a flag's value; a second flag for the same key is a ConfigError.

        Covers a repeated flag and a flag given with its alias (--cycles and
        --num-cycles), which argparse would otherwise resolve last-wins.
        """

        def __call__(self, parser, namespace, values, option_string=None):
            first_flag = vars(namespace).setdefault("_first_flag", {})
            if self.dest in first_flag:
                raise ConfigError(
                    f"{self.dest} given twice ({first_flag[self.dest]}, then {option_string})"
                )
            first_flag[self.dest] = option_string
            setattr(namespace, self.dest, values)

    parser = Parser(
        prog="groupbuy-inventory",
        description="Replenishment analytics for inventory feeding group-buying auctions.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    flag_help = {
        "--cycles": "alias for --num-cycles",
        "--out": "write the report to FILE instead of stdout",
    }
    descriptions = {
        "optimize": "closed-form statistics, optimal quantity and cost breakdown",
        "simulate": "Monte Carlo run with analytic side-by-side comparison",
        "sweep": "evaluate a parameter grid and emit csv/json/markdown",
        "validate": "fidelity suite against frozen reference values",
    }
    for name, help_text in descriptions.items():
        sub = subparsers.add_parser(name, help=help_text)
        if name != command:
            continue
        sub.add_argument("config", nargs="?", default=None,
                         help="path to a flat key = value config file")
        for flag, key in _FLAGS.items():
            sub.add_argument(flag, dest=key, default=None,
                             metavar="FILE" if key == "path" else "V",
                             action=StoreOnce, help=flag_help.get(flag))
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        line = _read_command_line(argv)
        if line is None:
            args = build_parser(argv[0] if argv else "").parse_args(argv)
            overrides = {
                key: value
                for key, value in vars(args).items()
                if key in _PARSERS and value is not None
            }
            line = args.command, args.config, overrides
        command, config_path, overrides = line
        cfg = load_run_config(config_path, overrides)
        text, code = _COMMANDS[command](cfg)
        try:
            if cfg.path is None:
                sys.stdout.write(text)
                sys.stdout.flush()
            else:
                Path(cfg.path).write_text(text, encoding="utf-8")
        except OSError as exc:
            target = cfg.path
            if target is None:
                target = "stdout"
                # The buffer that failed would be flushed again at shutdown.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write report to {target}: {exc}") from None
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericsError, ParameterError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
