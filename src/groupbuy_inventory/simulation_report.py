"""The simulate command's report: each stream's estimates, then the
simulator's analytic comparison of stream 0.

Imported by the CLI only when simulate runs.
"""

from __future__ import annotations

import math

from .errors import NumericsError
from .runconfig import RunConfig, _auction_from, _fmt_z, _require, _scenario_lines
from .simulator import SimulationResult, _analytic_comparison, replicate
from .stochastics import auction_statistics

# The labels of the estimate and standard-error pairs, SimulationResult's first eight fields.
_ESTIMATES = ("p_hat", "mean dispatch interval", "mean cycle length", "mean cycle cost")


def _line(label: str, value: float, note: str) -> str:
    return f"  {label:<27}{value:>12.6f}   {note}"


def _result_block(title: str, result: SimulationResult) -> list[str]:
    values = list(vars(result).values())
    counts = result.counts
    return [
        title,
        *(_line(label, value, f"(se {se:.3e})")
          for label, value, se in zip(_ESTIMATES, values[0:8:2], values[1:8:2])),
        _line("long-run cost rate", result.long_run_cost,
              f"(95% halfwidth {result.long_run_cost_halfwidth:.3e})"),
        f"  counts: auctions={counts.auctions} failures={counts.failures} "
        f"dispatches={counts.dispatches} cycles={counts.cycles}",
    ]


def cmd_simulate(cfg: RunConfig) -> tuple[str, int]:
    """Monte Carlo run plus side-by-side analytic comparison."""
    auction = _auction_from(cfg)
    costs = cfg.costs
    _require(cfg, "quantity")
    policy = cfg.policy
    results = replicate(auction, costs, policy, cfg.simulation, cfg.replications)

    lines = _scenario_lines("simulation report", auction, costs)
    lines.append(f"  policy: quantity={policy.quantity:g} shortfall_rule={cfg.shortfall_rule}")
    lines.append(
        f"  run: cycles={cfg.num_cycles} seed={cfg.seed} sampler={cfg.duration_sampler} "
        f"replications={cfg.replications}"
    )
    lines.append("")
    for index, result in enumerate(results):
        lines += _result_block(f"stream {index}", result)
        lines.append("")

    lines.append("analytic comparison, stream 0 (z in standard errors)")
    stats = auction_statistics(auction)
    comparison = _analytic_comparison(results[0], stats, costs, policy, auction.n_required)
    for (quantity, td_mode, a_mode), (value, z) in comparison.items():
        label = quantity if td_mode is None else f"{quantity} td={td_mode:<11}"
        if a_mode is not None:
            label += f" a_mode={a_mode:<7}"
        lines.append(_line(label, value, f"z={_fmt_z(z)}"))
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
