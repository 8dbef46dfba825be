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

_read_command_line reads every command line. Help is a report like any
other: main writes it to stdout.

Exit codes: 0 success, 1 validation checks failed, 2 configuration
error (including a usage error, a config file that cannot be read and a
report that cannot be written), 3 numeric domain error, 4 sweep finished
with failed cells.
"""

from __future__ import annotations

import os
import re
import sys
from pathlib import Path

from .costmodel import (
    Policy,
    _optimum,
    check_optimizable,
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
    _scenario_lines,
    load_run_config,
)
from .stochastics import auction_statistics


# optimize's labels of the AuctionStatistics fields, in field order.
_STAT_LABELS = ("success probability", "truncated mean duration", "conditional mean duration",
                "expected failures", "dispatch time (paper)", "dispatch time (consistent)")


def _stat_line(label: str, value: float) -> str:
    return f"  {label:<28} {value:>12.4f}   ({value!r})"


def cmd_optimize(cfg: RunConfig) -> tuple[str, int]:
    """Closed-form report: auction statistics, Q*, cost breakdown."""
    auction = _auction_from(cfg)
    costs = cfg.costs
    check_optimizable(costs, "optimizing the quantity", ConfigError)
    stats = auction_statistics(auction)
    n = auction.n_required
    _, q_star, q_int, cost_star = _optimum(stats, costs, n, cfg.td_mode)
    cost_int = long_run_average_cost(stats, costs, Policy(float(q_int)), n, cfg.td_mode, "approx")
    policy = Policy(q_star)
    terms = cost_rate_terms(stats, costs, policy, n, cfg.td_mode)
    breakdown = cycle_cost_breakdown(stats, costs, policy, n, cfg.td_mode, cfg.a_mode)

    lines = _scenario_lines("replenishment optimization report", auction, costs)
    lines.append(f"  modes: td_mode={cfg.td_mode} a_mode={cfg.a_mode}")
    lines += ["", "auction statistics", *map(_stat_line, _STAT_LABELS, vars(stats).values())]
    lines.append("")
    lines.append(f"optimal policy (td_mode={cfg.td_mode})")
    lines.append(_stat_line("optimal quantity", q_star))
    lines.append(f"  {'best integer quantity':<28} {q_int:>12d}")
    lines.append(_stat_line("optimal cost rate", cost_star))
    lines.append(_stat_line("cost rate at best integer", cost_int))
    lines.append(_stat_line("eoq limit (window -> inf)", eoq_limit(costs, auction.arrival_rate)))
    cycle = {"cycle length": breakdown.cycle_length, "cycle cost": breakdown.cycle_total}
    # holding, dispatching, transport, penalty and reorder: the first five fields.
    cycle.update(list(vars(breakdown).items())[:5])
    for title, block in (
        ("cost rate terms at the optimum (per time unit, approx dispatches)", terms),
        (f"cycle view at the optimum (a_mode={cfg.a_mode})", cycle),
    ):
        lines += ["", title, *(f"  {label:<20} {value:>14.6f}" for label, value in block.items())]
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

    check_optimizable(cfg.costs, "optimizing the quantity", ConfigError)
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


# --help's note on each command, on CONFIG and on the flags that have one.
_NOTES = {
    "optimize": "closed-form statistics, optimal quantity and cost breakdown",
    "simulate": "Monte Carlo run with analytic side-by-side comparison",
    "sweep": "evaluate a parameter grid and emit csv/json/markdown",
    "validate": "fidelity suite against frozen reference values",
    "CONFIG": "path to a flat key = value config file; a flag wins over it",
    "-h, --help": "show this help message and exit",
    "--cycles V": "alias for --num-cycles",
    "--out FILE": "write the report to FILE instead of stdout",
}

# Every config-key flag and its key, in the order --help lists them and
# prefixes are matched: the keys' own flags, then --cycles and --out.
_FLAGS = {
    **{f"--{key.replace('_', '-')}": key for key in _PARSERS if key != "path"},
    "--cycles": "num_cycles",
    "--out": "path",
}


def _help() -> str:
    """--help's text: the commands, then CONFIG and the flags, which every command takes."""
    flags = (f"{flag} {'FILE' if flag == '--out' else 'V'}" for flag in _FLAGS)
    return "\n".join([
        "usage: groupbuy-inventory COMMAND [CONFIG] [--FLAG VALUE ...]",
        "",
        "Replenishment analytics for inventory feeding group-buying auctions.",
        "",
        *(f"  {entry:<29}{_NOTES.get(entry, '')}".rstrip()
          for entry in [*_COMMANDS, "CONFIG", "-h, --help", *flags]),
    ]) + "\n"


def _read_command_line(argv: list[str]) -> tuple[str | None, str | None, dict[str, str]]:
    """(command, config, overrides) of a command line; (None, None, {}) asks for help.

    The line is ``COMMAND (CONFIG | --FLAG VALUE | --FLAG=VALUE | --)*``,
    with -h or --help anywhere for help. A flag is one of _FLAGS or the one
    it is a prefix of, and each key is given once. A VALUE is the next
    token, verbatim, unless it starts with '--'. COMMAND and CONFIG are the
    tokens that do not start with '-' (or are '-' or a negative number) or
    follow ``--``. The overrides follow _PARSERS' order, the config's order.
    """
    flags = ["-h", "--help", *_FLAGS]
    positionals: list[str] = []
    options_ended = False
    given: dict[str, tuple[str, str]] = {}
    tokens = iter(argv)
    for token in tokens:
        if token == "--" and not options_ended:
            options_ended = True
        elif options_ended or token[:1] != "-" or re.fullmatch(r"-(\d*\.?\d+)?", token):
            if not positionals and token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                raise ConfigError(f"argument command: invalid choice: {token!r} (choose from {choices})")
            if len(positionals) == 2:
                raise ConfigError(f"unrecognized arguments: {token}")
            positionals.append(token)
        else:
            name, equals, value = token.partition("=")
            matches = [name] if name in flags else [flag for flag in flags if flag.startswith(name)]
            if len(matches) != 1:
                ambiguous = f"ambiguous option: {token} could match {', '.join(matches)}"
                raise ConfigError(ambiguous if matches else f"unrecognized arguments: {token}")
            flag = matches[0]
            if flag in ("-h", "--help"):
                return None, None, {}
            value = value if equals else next(tokens, "--")
            if value.startswith("--") and not equals:
                raise ConfigError(f"argument {flag}: expected one argument")
            key = _FLAGS[flag]
            if key in given:
                raise ConfigError(f"{key} given twice ({given[key][0]}, then {flag})")
            given[key] = flag, value
    if not positionals:
        raise ConfigError("the following arguments are required: command")
    command, config = [*positionals, None][:2]
    return command, config, {key: given[key][1] for key in _PARSERS if key in given}


def main(argv: list[str] | None = None) -> int:
    try:
        command, config_path, overrides = _read_command_line(sys.argv[1:] if argv is None else argv)
        if command is None:
            text, code, path = _help(), 0, None
        else:
            cfg = load_run_config(config_path, overrides)
            text, code = _COMMANDS[command](cfg)
            path = cfg.path
        try:
            if path is None:
                sys.stdout.write(text)
                sys.stdout.flush()
            else:
                Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            target = path
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
