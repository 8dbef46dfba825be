"""Command-line interface: optimize, simulate, sweep and validate.

Configuration comes from an optional flat ``key = value`` file (``#``
starts a comment) plus per-key override flags; a flag always wins over
the file (see runconfig). All reports are plain deterministic text on
stdout, or written to the file named by ``path`` / ``--out``.

This module holds optimize's and sweep's report code and the command
line; simulate's and validate's report code lives in simulation_report
and validation, which only those commands import, so that each command
compiles only what it runs. No module imports this one: run as
``python -m groupbuy_inventory.cli`` it is ``__main__``, and an import
would compile and run it a second time.

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

import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .costmodel import (
    Policy,
    _optimum,
    cost_rate_terms,
    cycle_cost_breakdown,
    eoq_limit,
    long_run_average_cost,
)
from .errors import ConfigError, DomainError, NumericsError, ParameterError
from .runconfig import (
    _PARSERS,
    RunConfig,
    _auction_from,
    _require,
    _require_optimizable,
    _scenario_lines,
    load_run_config,
)
from .stochastics import auction_statistics

if TYPE_CHECKING:
    import argparse


def _stat_line(label: str, value: float) -> str:
    return f"  {label:<28} {value:>12.4f}   ({value!r})"


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


def cmd_simulate(cfg: RunConfig) -> tuple[str, int]:
    from .simulation_report import cmd_simulate
    return cmd_simulate(cfg)


def cmd_validate(cfg: RunConfig) -> tuple[str, int]:
    from .validation import cmd_validate
    return cmd_validate(cfg)


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
