"""The simulate command's report, and the analytic comparison that validate
shares with it.

Imported by the CLI only when simulate or validate runs.
"""

from __future__ import annotations

import math

from .costmodel import A_MODES, CostParams, Policy, long_run_average_cost
from .errors import NumericsError
from .runconfig import RunConfig, _auction_from, _require, _scenario_lines
from .simulator import SimulationResult, replicate
from .stochastics import TD_MODES, AuctionStatistics, auction_statistics, select_dispatch_time


def _fmt_z(z: float) -> str:
    return f"{z:+.2f}" if math.isfinite(z) else "n/a"


def _z(estimate: float, value: float, se: float) -> float:
    """Distance of an estimate from its analytic value in standard errors."""
    return (estimate - value) / se if se > 0 else math.nan


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
