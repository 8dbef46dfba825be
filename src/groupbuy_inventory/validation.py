"""The validate command: the fidelity suite against frozen reference values
plus the simulator's cross-check of the configured scenario.

Imported by the CLI only when validate runs.
"""

from __future__ import annotations

import math

from .costmodel import (
    CostParams,
    Policy,
    _optimum,
    best_integer_quantity,
    check_optimizable,
    eoq_limit,
    long_run_average_cost,
    optimal_quantity,
)
from .errors import ConfigError, replace
from .runconfig import RunConfig, _auction_from, _fmt_z, _scenario_lines
from .simulator import _analytic_comparison, simulate
from .stochastics import AuctionParams, auction_statistics

# Frozen reference values for the validation suite: the base scenario (the
# grid's middle cell) and the 3x3 (n_required, max_time) grid at arrival
# rate 14 with costs dispatch=40, transport/unit=4, holding=0.02,
# penalty=10, reorder=300.
_REFERENCE_RATE = 14.0
_BASE_CELL = (100, 7.0)
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
    auction = _auction_from(cfg)
    costs = cfg.costs
    check_optimizable(costs, "optimizing the quantity", ConfigError)
    # Simulate first, so that its checks refuse a run before the grid work.
    stats = auction_statistics(auction)
    n = auction.n_required
    if cfg.policy is not None:
        policy = cfg.policy
        quantity_origin = "config"
    else:
        policy = Policy(float(best_integer_quantity(stats, costs, n, cfg.td_mode)))
        quantity_origin = "best integer optimum"
    config = replace(cfg.simulation, shortfall_rule="reset_to_q")
    result = simulate(auction, costs, policy, config)

    checks: list[tuple[str, str]] = []

    def check(passed: bool, text: str) -> None:
        checks.append(("PASS" if passed else "FAIL", text))

    def info(text: str) -> None:
        checks.append(("INFO", text))

    # One pass over the reference grid, base cell included, in the references' paper td mode.
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
        if cell == _BASE_CELL:
            base_stats, base_q_star, base_q_int = cell_stats, q_star, q_int
        if abs(q_int - q_ref) > (1 if cell == _SENSITIVE_CELL else 0):
            mismatches.append(f"n={n_cell} t={t_cell:g}: {q_int} vs {q_ref}")
        worst_consistency = max(worst_consistency, abs(closed - cost_at(q_star)) / closed)
        best_cost = cost_at(q_int)
        scan_ok = scan_ok and not any(
            cost_at(candidate) < best_cost * (1.0 - 1e-12)
            for candidate in range(max(1, q_int - 50), q_int + 51)
        )
        cost_deltas.append(f"n={n_cell} t={t_cell:g}: {closed - cost_ref:+.4f}")

    base_p, _, base_q_ref, _ = _REFERENCE_GRID[_BASE_CELL]
    for label, computed, expected, tol in (
        ("success probability", base_stats.p_success, base_p, 5e-5),
        ("truncated mean duration", base_stats.e_min_duration, 6.7829, 1e-3),
        ("dispatch time", base_stats.dispatch_time_paper, 15.9376, 1e-3),
        ("optimal quantity", base_q_star, 433.8597, 1e-3),
        ("integer quantity", base_q_int, base_q_ref, 0),
    ):
        check(
            abs(computed - expected) <= tol,
            f"base {label} {computed:.6f} vs {expected} (tol {tol:.0e})"
            if tol
            else f"base {label} {computed} vs {expected}",
        )

    cells = f"{len(_REFERENCE_GRID)} cells"
    check(worst_p <= 5e-5, f"grid success probability: max abs delta {worst_p:.2e} (tol 5e-05, {cells})")
    check(td_ok, f"grid dispatch time: max rel delta {worst_td:.2e} (tol 1e-02, loose cell 5e-02)")
    check(
        not mismatches,
        "grid integer quantity mismatches: " + "; ".join(mismatches)
        if mismatches
        else f"grid integer quantity: all {cells} match",
    )
    # The two routes agree to roundoff, so only the verdict is printed when
    # they pass: the value itself would move with last-digit changes.
    routes_agree = worst_consistency <= 1e-9
    check(
        routes_agree,
        f"closed-form vs direct cost at Q*: all {cells} within 1e-09"
        if routes_agree
        else f"closed-form vs direct cost at Q*: max rel delta {worst_consistency:.2e} (tol 1e-09)",
    )
    check(scan_ok, f"integer scan: no cheaper quantity within +/-50 of the optimum ({cells})")

    long_window = AuctionParams(_BASE_CELL[0], 1e5, _REFERENCE_RATE)
    q_long = optimal_quantity(auction_statistics(long_window), _REFERENCE_COSTS, _BASE_CELL[0], "paper")
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

    lines = _scenario_lines("validation report", auction, costs)
    lines.append(
        f"  simulation: cycles={config.num_cycles} seed={config.seed} "
        f"quantity={policy.quantity:g} ({quantity_origin}) sampler={config.duration_sampler} "
        f"shortfall_rule={config.shortfall_rule}"
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
