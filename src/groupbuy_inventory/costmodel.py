"""Renewal cycle costs and the optimal replenishment quantity.

A replenishment cycle starts with the inventory level at the order-up-to
quantity Q and ends when a dispatch drains the level to or below zero,
which immediately triggers a reorder back to Q. Each dispatch removes one
batch of n_required units and is preceded, on average, by
expected_failures failed bidding windows. With A dispatches per cycle and
expected dispatch spacing td, the renewal-reward theorem turns expected
cycle cost over expected cycle length into a long-run average cost rate.

Two treatments of A coexist:

* ``approx`` takes A = Q / n_required, which yields the closed-form rate
  C(Q) = I*Q/2 + I*N/2 + D/td + F*N/td + Cp*(1-p)/(p*td) + K*N/(Q*td)
  and the square-root minimizer Q* = sqrt(2*K*N / (I*td)).
* ``exact`` takes A = ceil(Q / n_required) and accumulates the actual
  staircase of inventory levels, which is what a discrete simulation sees.

The minimizer is independent of the dispatch cost, the per-unit transport
cost and the failure penalty: those terms do not depend on Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import NumericsError, ParameterError, check_choice
from .stochastics import AuctionStatistics, TdMode, select_dispatch_time

AMode = Literal["exact", "approx"]

A_MODES: tuple[str, ...] = ("exact", "approx")


@dataclass(frozen=True)
class CostParams:
    """Cost coefficients of the replenishment system.

    dispatch_cost: fixed cost per successful dispatch (order handling).
    unit_transport_cost: transport cost per unit shipped.
    holding_rate: holding cost per unit per time unit.
    failure_penalty: cost charged for each failed bidding window.
    reorder_cost: fixed cost per replenishment order.

    All coefficients must be finite and non-negative. Operations that
    divide by holding_rate or reorder_cost (the optimal-quantity family)
    additionally require those two to be strictly positive and say so.
    """

    dispatch_cost: float
    unit_transport_cost: float
    holding_rate: float
    failure_penalty: float
    reorder_cost: float

    def __post_init__(self) -> None:
        for name in ("dispatch_cost", "unit_transport_cost", "holding_rate",
                     "failure_penalty", "reorder_cost"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class Policy:
    """Replenishment policy: reorder up to ``quantity`` units."""

    quantity: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.quantity) or self.quantity <= 0.0:
            raise ParameterError(f"quantity must be finite and > 0, got {self.quantity!r}")


@dataclass(frozen=True)
class CostBreakdown:
    """Expected cost of one replenishment cycle, split by source.

    holding, dispatching, transport, penalty and reorder are expected
    totals over one cycle; cycle_length is the expected cycle duration;
    cycle_total is their sum and long_run_average is cycle_total divided
    by cycle_length.
    """

    holding: float
    dispatching: float
    transport: float
    penalty: float
    reorder: float
    cycle_length: float
    cycle_total: float
    long_run_average: float


def _check_n_required(n_required: int) -> None:
    if isinstance(n_required, bool) or not isinstance(n_required, int) or n_required < 1:
        raise ParameterError(f"n_required must be an integer >= 1, got {n_required!r}")


def check_optimizable(costs: CostParams, operation: str) -> None:
    """Raise ParameterError naming operation unless holding_rate and reorder_cost are > 0."""
    if costs.holding_rate <= 0.0:
        raise ParameterError(f"{operation} requires holding_rate > 0")
    if costs.reorder_cost <= 0.0:
        raise ParameterError(f"{operation} requires reorder_cost > 0")


def _finite_dispatch_time(stats: AuctionStatistics, td_mode: TdMode) -> float:
    td = select_dispatch_time(stats, td_mode)
    if not math.isfinite(td) or td <= 0.0:
        raise NumericsError(f"dispatch time is not a positive finite number: {td!r}")
    return td


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericsError(f"{what} is not finite: {value!r}")
    return value


def _divide(numerator: float, denominator: float, what: str) -> float:
    # A product of positive factors can underflow to zero.
    if denominator == 0.0:
        raise NumericsError(f"{what} underflowed to zero")
    return numerator / denominator


def dispatches_per_cycle(quantity: float, n_required: int, mode: AMode = "approx") -> float:
    """Number of dispatches one cycle supports.

    "exact" rounds Q / n_required up to the integer number of batches the
    stock actually covers (the final batch may oversell the remainder);
    "approx" returns the real ratio used by the closed-form cost rate.
    """
    _check_n_required(n_required)
    check_choice("a_mode", mode, A_MODES)
    if not math.isfinite(quantity) or quantity <= 0.0:
        raise ParameterError(f"quantity must be finite and > 0, got {quantity!r}")
    if mode == "exact":
        return float(math.ceil(quantity / n_required))
    return quantity / n_required


def cycle_cost_breakdown(
    stats: AuctionStatistics,
    costs: CostParams,
    policy: Policy,
    n_required: int,
    td_mode: TdMode = "paper",
    a_mode: AMode = "approx",
) -> CostBreakdown:
    """Expected per-cycle costs for one policy.

    In exact mode the inventory level sits at Q - (j-1)*N during the j-th
    dispatch interval, so expected holding is
    I * td * A * (Q - (A-1)*N/2) with A = ceil(Q/N). In approx mode the
    level is averaged to (Q + N)/2 across A = Q/N intervals. Dispatching,
    transport and penalty scale with A; the reorder cost is charged once.
    Raises NumericsError naming the first field that is not finite.
    """
    batches = dispatches_per_cycle(policy.quantity, n_required, a_mode)
    td = _finite_dispatch_time(stats, td_mode)
    q = policy.quantity
    n = float(n_required)
    if a_mode == "exact":
        holding = costs.holding_rate * td * batches * (q - (batches - 1.0) * n / 2.0)
    else:
        holding = costs.holding_rate * batches * td * (q + n) / 2.0
    dispatching = costs.dispatch_cost * batches
    transport = costs.unit_transport_cost * batches * n
    penalty = costs.failure_penalty * batches * stats.expected_failures
    reorder = costs.reorder_cost
    cycle_length = batches * td
    cycle_total = holding + dispatching + transport + penalty + reorder
    breakdown = CostBreakdown(
        holding=holding,
        dispatching=dispatching,
        transport=transport,
        penalty=penalty,
        reorder=reorder,
        cycle_length=cycle_length,
        cycle_total=cycle_total,
        long_run_average=_divide(cycle_total, cycle_length, "cycle length"),
    )
    for name, value in vars(breakdown).items():
        if not math.isfinite(value):
            raise NumericsError(f"expected {name} is not finite: {value!r}")
    return breakdown


def long_run_average_cost(
    stats: AuctionStatistics,
    costs: CostParams,
    policy: Policy,
    n_required: int,
    td_mode: TdMode = "paper",
    a_mode: AMode = "approx",
) -> float:
    """Long-run average cost rate of a policy (cycle total over cycle length)."""
    return cycle_cost_breakdown(stats, costs, policy, n_required, td_mode, a_mode).long_run_average


def _q_free_rate_terms(
    stats: AuctionStatistics, costs: CostParams, n: float, td: float
) -> dict[str, float]:
    # The four cost-rate terms that do not depend on Q, in report order.
    return {
        "holding_batch": costs.holding_rate * n / 2.0,
        "dispatch": costs.dispatch_cost / td,
        "transport": costs.unit_transport_cost * n / td,
        "penalty": costs.failure_penalty * stats.expected_failures / td,
    }


def cost_rate_terms(
    stats: AuctionStatistics,
    costs: CostParams,
    policy: Policy,
    n_required: int,
    td_mode: TdMode = "paper",
) -> dict[str, float]:
    """The six closed-form terms of the approx-A cost rate, by name.

    holding_quantity I*Q/2, holding_batch I*N/2, dispatch D/td,
    transport F*N/td, penalty Cp*failures/td, reorder K*N/(Q*td). Their
    sum equals long_run_average_cost(..., a_mode="approx") up to roundoff.
    """
    _check_n_required(n_required)
    td = _finite_dispatch_time(stats, td_mode)
    q = policy.quantity
    n = float(n_required)
    return {
        "holding_quantity": costs.holding_rate * q / 2.0,
        **_q_free_rate_terms(stats, costs, n, td),
        "reorder": _divide(costs.reorder_cost * n, q * td, "quantity * dispatch time"),
    }


def cost_derivatives(
    stats: AuctionStatistics,
    costs: CostParams,
    policy: Policy,
    n_required: int,
    td_mode: TdMode = "paper",
) -> tuple[float, float]:
    """First and second derivative in Q of the approx-A cost rate.

    C'(Q) = I/2 - K*N / (Q^2 * td) and C''(Q) = 2*K*N / (Q^3 * td); the
    second derivative is positive for every Q > 0, so the rate is strictly
    convex and the interior stationary point is the unique minimum.
    """
    _check_n_required(n_required)
    td = _finite_dispatch_time(stats, td_mode)
    q = policy.quantity
    n = float(n_required)
    first = costs.holding_rate / 2.0 - _divide(
        costs.reorder_cost * n, q * q * td, "quantity^2 * dispatch time"
    )
    second = _divide(2.0 * costs.reorder_cost * n, q * q * q * td, "quantity^3 * dispatch time")
    return first, second


def optimal_quantity(
    stats: AuctionStatistics,
    costs: CostParams,
    n_required: int,
    td_mode: TdMode = "paper",
) -> float:
    """The real-valued minimizer Q* = sqrt(2*K*N / (I*td)) of the cost rate.

    Requires holding_rate > 0 and reorder_cost > 0; with either at zero the
    rate has no interior minimum (it becomes monotone in Q). Raises
    NumericsError when Q* overflows to infinity or I*td underflows to zero.
    """
    _check_n_required(n_required)
    check_optimizable(costs, "optimal_quantity")
    td = _finite_dispatch_time(stats, td_mode)
    q_star = math.sqrt(_divide(
        2.0 * costs.reorder_cost * n_required, costs.holding_rate * td,
        "holding_rate * dispatch time",
    ))
    return _finite(q_star, "optimal quantity")


def optimal_cost(
    stats: AuctionStatistics,
    costs: CostParams,
    n_required: int,
    td_mode: TdMode = "paper",
) -> float:
    """Closed-form cost rate at Q*: sqrt(2*I*K*N/td) plus the Q-free terms.

    Raises NumericsError when the rate overflows to infinity.
    """
    _check_n_required(n_required)
    check_optimizable(costs, "optimal_cost")
    td = _finite_dispatch_time(stats, td_mode)
    n = float(n_required)
    rate = math.sqrt(2.0 * costs.holding_rate * costs.reorder_cost * n / td)
    # A left-to-right loop, not sum(): from Python 3.12 sum() compensates
    # float roundoff, which would move the last printed digits.
    for term in _q_free_rate_terms(stats, costs, n, td).values():
        rate += term
    return _finite(rate, "optimal cost rate")


def best_integer_quantity(
    stats: AuctionStatistics,
    costs: CostParams,
    n_required: int,
    td_mode: TdMode = "paper",
) -> int:
    """Integer quantity with the lower closed-form cost rate.

    Compares floor(Q*) and ceil(Q*) under the approx-A rate; convexity
    makes one of them the integer optimum. Ties go to the larger quantity,
    and a floor below 1 falls back to the ceiling. Raises NumericsError
    when Q* or a compared cost rate is not finite.
    """
    q_star = optimal_quantity(stats, costs, n_required, td_mode)
    lo = math.floor(q_star)
    hi = math.ceil(q_star)
    if hi < 1:
        hi = 1
    if lo < 1 or lo == hi:
        return int(hi)
    cost_lo = long_run_average_cost(stats, costs, Policy(float(lo)), n_required, td_mode, "approx")
    cost_hi = long_run_average_cost(stats, costs, Policy(float(hi)), n_required, td_mode, "approx")
    return int(hi) if cost_hi <= cost_lo else int(lo)


def eoq_limit(costs: CostParams, arrival_rate: float) -> float:
    """Classical economic order quantity sqrt(2*K*rate / I).

    This is Q* in the unbounded-window limit: with max_time infinite the
    dispatch spacing is n_required / arrival_rate, and n_required cancels
    out of the square root. Requires holding_rate > 0 and reorder_cost > 0;
    raises NumericsError when the quantity overflows to infinity.
    """
    if not math.isfinite(arrival_rate) or arrival_rate <= 0.0:
        raise ParameterError(f"arrival_rate must be finite and > 0, got {arrival_rate!r}")
    check_optimizable(costs, "eoq_limit")
    eoq = math.sqrt(2.0 * costs.reorder_cost * arrival_rate / costs.holding_rate)
    return _finite(eoq, "eoq limit")
