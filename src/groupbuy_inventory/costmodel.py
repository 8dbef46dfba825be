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
from typing import Literal, get_args

from .errors import NumericsError, ParameterError, check_choice, check_float, check_int
from .errors import check_positive, record
from .stochastics import AuctionStatistics, TdMode, select_dispatch_time

AMode = Literal["exact", "approx"]

A_MODES: tuple[str, ...] = get_args(AMode)


@record
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
        for name, value in zip(self._names, self._values(self)):
            if not math.isfinite(value) or value < 0.0:
                raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


@record
class Policy:
    """Replenishment policy: reorder up to ``quantity`` units."""

    quantity: float

    def __post_init__(self) -> None:
        check_positive("quantity", self.quantity)


@record
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


def check_optimizable(costs: CostParams, operation: str, error: type = ParameterError) -> None:
    """Raise error naming operation unless holding_rate and reorder_cost are > 0."""
    if costs.holding_rate <= 0.0:
        raise error(f"{operation} requires holding_rate > 0")
    if costs.reorder_cost <= 0.0:
        raise error(f"{operation} requires reorder_cost > 0")


def _n_and_td(stats: AuctionStatistics, n_required: int, td_mode: TdMode) -> tuple[float, float]:
    # The checked inputs every cost formula starts from: (N, td).
    check_int("n_required", n_required, 1)
    td = select_dispatch_time(stats, td_mode)
    if not math.isfinite(td) or td <= 0.0:
        raise NumericsError(f"dispatch time is not a positive finite number: {td!r}")
    return float(n_required), td


def _finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise NumericsError(f"{what} is not finite: {value!r}")
    return value


def _divide(numerator: float, denominator: float, what: str) -> float:
    # A product of positive factors can underflow to zero.
    if denominator == 0.0:
        raise NumericsError(f"{what} underflowed to zero")
    return numerator / denominator


def _ceil_batches(quantity: float, n_required: int, cycles: int = 1) -> int:
    # ceil(cycles * Q / n_required) from Q's integer ratio: the float Q / n rounds, even to 0.
    numerator, denominator = quantity.as_integer_ratio()
    return -(-cycles * numerator // (denominator * n_required))


def dispatches_per_cycle(quantity: float, n_required: int, mode: AMode = "approx") -> float:
    """Number of dispatches one cycle supports.

    "exact" rounds Q / n_required up, exactly, to the batches the stock
    covers, one at least for any Q > 0 (the last may oversell the rest);
    "approx" returns the real ratio used by the closed-form cost rate.
    """
    check_int("n_required", n_required, 1)
    check_choice("a_mode", mode, A_MODES)
    Policy(quantity)
    if mode == "exact":
        return float(_ceil_batches(quantity, n_required))
    return quantity / n_required


def _cycle_costs(
    stats: AuctionStatistics, costs: CostParams,
    q: float, n: float, td: float, batches: float, a_mode: AMode,
) -> tuple[float, ...]:
    # The CostBreakdown fields, in field order, from checked (Q, N, td, A).
    if a_mode == "exact":
        holding = costs.holding_rate * td * batches * (q - (batches - 1.0) * n / 2.0)
    else:
        holding = costs.holding_rate * batches * td * (q + n) / 2.0
    dispatching = costs.dispatch_cost * batches
    transport = costs.unit_transport_cost * batches * n
    penalty = costs.failure_penalty * batches * stats.expected_failures
    cycle_length = batches * td
    cycle_total = holding + dispatching + transport + penalty + costs.reorder_cost
    values = (holding, dispatching, transport, penalty, costs.reorder_cost, cycle_length,
              cycle_total, _divide(cycle_total, cycle_length, "cycle length"))
    # A field that is not finite makes cycle_total, and so this sum, not finite.
    if not math.isfinite(cycle_total + cycle_length + values[-1]):
        for name, value in zip(CostBreakdown._names, values):
            _finite(value, f"expected {name}")
    return values


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
    n, td = _n_and_td(stats, n_required, td_mode)
    batches = dispatches_per_cycle(policy.quantity, n_required, a_mode)
    return CostBreakdown(*_cycle_costs(stats, costs, policy.quantity, n, td, batches, a_mode))


def long_run_average_cost(
    stats: AuctionStatistics,
    costs: CostParams,
    policy: Policy,
    n_required: int,
    td_mode: TdMode = "paper",
    a_mode: AMode = "approx",
) -> float:
    """Long-run average cost rate of a policy (cycle total over cycle length)."""
    n, td = _n_and_td(stats, n_required, td_mode)
    batches = dispatches_per_cycle(policy.quantity, n_required, a_mode)
    return _cycle_costs(stats, costs, policy.quantity, n, td, batches, a_mode)[-1]


_Q_FREE_TERMS = ("holding_batch", "dispatch", "transport", "penalty")


def _q_free_rate_terms(
    stats: AuctionStatistics, costs: CostParams, n: float, td: float
) -> tuple[float, float, float, float]:
    # The four cost-rate terms that do not depend on Q, in _Q_FREE_TERMS order.
    return (
        costs.holding_rate * n / 2.0,
        costs.dispatch_cost / td,
        costs.unit_transport_cost * n / td,
        costs.failure_penalty * stats.expected_failures / td,
    )


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
    n, td = _n_and_td(stats, n_required, td_mode)
    q = policy.quantity
    return {
        "holding_quantity": costs.holding_rate * q / 2.0,
        **dict(zip(_Q_FREE_TERMS, _q_free_rate_terms(stats, costs, n, td))),
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
    n, td = _n_and_td(stats, n_required, td_mode)
    q = policy.quantity
    first = costs.holding_rate / 2.0 - _divide(
        costs.reorder_cost * n, q * q * td, "quantity^2 * dispatch time"
    )
    second = _divide(2.0 * costs.reorder_cost * n, q * q * q * td, "quantity^3 * dispatch time")
    return first, second


def _square_root_optimum(
    stats: AuctionStatistics, costs: CostParams, n_required: int, td_mode: TdMode
) -> tuple[float, float, float]:
    # (N, td, Q*) with optimal_quantity's checks and errors.
    n, td = _n_and_td(stats, n_required, td_mode)
    check_optimizable(costs, "optimal_quantity")
    q_star = math.sqrt(_divide(
        2.0 * costs.reorder_cost * n, costs.holding_rate * td,
        "holding_rate * dispatch time",
    ))
    return n, td, _finite(q_star, "optimal quantity")


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
    return _square_root_optimum(stats, costs, n_required, td_mode)[2]


def _optimal_cost(stats: AuctionStatistics, costs: CostParams, n: float, td: float) -> float:
    holding_batch, dispatch, transport, penalty = _q_free_rate_terms(stats, costs, n, td)
    # Left to right, not sum(): from Python 3.12 sum() compensates float
    # roundoff, which would move the last printed digits.
    rate = math.sqrt(2.0 * costs.holding_rate * costs.reorder_cost * n / td)
    rate = rate + holding_batch + dispatch + transport + penalty
    return _finite(rate, "optimal cost rate")


def optimal_cost(
    stats: AuctionStatistics,
    costs: CostParams,
    n_required: int,
    td_mode: TdMode = "paper",
) -> float:
    """Closed-form cost rate at Q*: sqrt(2*I*K*N/td) plus the Q-free terms.

    Raises NumericsError when the rate overflows to infinity.
    """
    n, td = _n_and_td(stats, n_required, td_mode)
    check_optimizable(costs, "optimal_cost")
    return _optimal_cost(stats, costs, n, td)


def _best_integer(
    stats: AuctionStatistics, costs: CostParams, n: float, td: float, q_star: float
) -> int:
    lo = math.floor(q_star)
    hi = max(1, math.ceil(q_star))
    if lo < 1 or lo == hi:
        return hi
    cost_lo = _cycle_costs(stats, costs, float(lo), n, td, lo / n, "approx")[-1]
    cost_hi = _cycle_costs(stats, costs, float(hi), n, td, hi / n, "approx")[-1]
    return hi if cost_hi <= cost_lo else lo


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
    return _best_integer(stats, costs, *_square_root_optimum(stats, costs, n_required, td_mode))


def _optimum(
    stats: AuctionStatistics, costs: CostParams, n_required: int, td_mode: TdMode
) -> tuple[float, float, int, float]:
    # (td, Q*, integer Q, C(Q*)) with one check of the inputs: the values and first
    # error of optimal_quantity, best_integer_quantity and optimal_cost in turn.
    n, td, q_star = _square_root_optimum(stats, costs, n_required, td_mode)
    q_int = _best_integer(stats, costs, n, td, q_star)
    return td, q_star, q_int, _optimal_cost(stats, costs, n, td)


def eoq_limit(costs: CostParams, arrival_rate: float) -> float:
    """Classical economic order quantity sqrt(2*K*rate / I).

    This is Q* in the unbounded-window limit: with max_time infinite the
    dispatch spacing is n_required / arrival_rate, and n_required cancels
    out of the square root. Requires holding_rate > 0 and reorder_cost > 0;
    raises NumericsError when the quantity overflows to infinity.
    """
    check_float("arrival_rate", arrival_rate)
    check_positive("arrival_rate", arrival_rate)
    check_optimizable(costs, "eoq_limit")
    eoq = math.sqrt(2.0 * costs.reorder_cost * arrival_rate / costs.holding_rate)
    return _finite(eoq, "eoq limit")
