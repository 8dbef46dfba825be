import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupbuy_inventory import (
    AuctionParams,
    AuctionStatistics,
    CostParams,
    NumericsError,
    ParameterError,
    Policy,
    auction_statistics,
    best_integer_quantity,
    cost_derivatives,
    cost_rate_terms,
    cycle_cost_breakdown,
    dispatches_per_cycle,
    eoq_limit,
    long_run_average_cost,
    optimal_cost,
    optimal_quantity,
)
from groupbuy_inventory import costmodel
from reference_values import (
    BASE_COST_STAR,
    BASE_Q_INTEGER,
    BASE_Q_STAR,
    BASE_TERMS,
    EOQ_BASE,
    GRID_COST_ORACLE,
    GRID_P,
    GRID_Q_STAR_ORACLE,
    RATE,
)


def _synthetic_stats(td: float) -> AuctionStatistics:
    # Minimal statistics object for cost-model-only properties; both td
    # modes carry the same value so the mode choice is irrelevant here.
    return AuctionStatistics(
        p_success=0.5,
        e_min_duration=td,
        e_cond_duration=td,
        expected_failures=1.0,
        dispatch_time_paper=td,
        dispatch_time_consistent=td,
    )


class TestOptimalQuantity:
    def test_base_value(self, base_stats, base_costs):
        q_star = optimal_quantity(base_stats, base_costs, 100, "paper")
        assert q_star == pytest.approx(BASE_Q_STAR, abs=1e-8)

    def test_base_cost(self, base_stats, base_costs):
        assert optimal_cost(base_stats, base_costs, 100, "paper") == pytest.approx(
            BASE_COST_STAR, abs=1e-8
        )

    def test_base_integer(self, base_stats, base_costs):
        assert best_integer_quantity(base_stats, base_costs, 100, "paper") == BASE_Q_INTEGER

    def test_grid_against_oracle(self, base_costs):
        for (n, t), expected in GRID_Q_STAR_ORACLE.items():
            stats = auction_statistics(AuctionParams(n_required=n, max_time=t, arrival_rate=RATE))
            q_star = optimal_quantity(stats, base_costs, n, "paper")
            assert q_star == pytest.approx(expected, rel=1e-7)
            assert optimal_cost(stats, base_costs, n, "paper") == pytest.approx(
                GRID_COST_ORACLE[(n, t)], rel=1e-7
            )

    def test_independent_of_q_free_costs(self, base_stats, base_costs):
        # Dispatch cost, transport cost and penalty shift the rate but not
        # its minimizer: Q* must be bit-identical across them.
        q_star = optimal_quantity(base_stats, base_costs, 100, "paper")
        shifted = CostParams(
            dispatch_cost=999.0,
            unit_transport_cost=77.0,
            holding_rate=base_costs.holding_rate,
            failure_penalty=123.0,
            reorder_cost=base_costs.reorder_cost,
        )
        assert optimal_quantity(base_stats, shifted, 100, "paper") == q_star
        assert best_integer_quantity(base_stats, shifted, 100, "paper") == BASE_Q_INTEGER

    def test_requires_positive_holding_and_reorder(self, base_stats):
        no_holding = CostParams(40.0, 4.0, 0.0, 10.0, 300.0)
        no_reorder = CostParams(40.0, 4.0, 0.02, 10.0, 0.0)
        for costs in (no_holding, no_reorder):
            with pytest.raises(ParameterError):
                optimal_quantity(base_stats, costs, 100, "paper")
            with pytest.raises(ParameterError):
                optimal_cost(base_stats, costs, 100, "paper")

    def test_td_mode_changes_result(self, base_stats, base_costs):
        q_paper = optimal_quantity(base_stats, base_costs, 100, "paper")
        q_consistent = optimal_quantity(base_stats, base_costs, 100, "consistent")
        # Smaller dispatch time means a larger optimal quantity.
        assert q_consistent > q_paper

    @settings(max_examples=150, deadline=None)
    @given(
        holding=st.floats(min_value=1e-6, max_value=1e3, allow_nan=False),
        reorder=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
        n=st.integers(min_value=1, max_value=1000),
        td=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
    )
    def test_minimizes_the_rate(self, holding, reorder, n, td):
        stats = _synthetic_stats(td)
        costs = CostParams(3.0, 1.0, holding, 2.0, reorder)
        q_star = optimal_quantity(stats, costs, n, "paper")
        best = long_run_average_cost(stats, costs, Policy(q_star), n, "paper", "approx")
        for factor in (0.5, 0.9, 0.99, 1.01, 1.1, 2.0):
            other = long_run_average_cost(
                stats, costs, Policy(q_star * factor), n, "paper", "approx"
            )
            assert best <= other * (1.0 + 1e-12)


class TestDerivativesAndConvexity:
    def test_matches_finite_differences(self, base_stats, base_costs):
        for quantity in (50.0, 200.0, BASE_Q_STAR, 800.0, 2000.0):
            first, second = cost_derivatives(
                base_stats, base_costs, Policy(quantity), 100, "paper"
            )
            h = quantity * 1e-4

            def rate(q):
                return long_run_average_cost(
                    base_stats, base_costs, Policy(q), 100, "paper", "approx"
                )

            fd_first = (rate(quantity + h) - rate(quantity - h)) / (2.0 * h)
            fd_second = (rate(quantity + h) - 2.0 * rate(quantity) + rate(quantity - h)) / (h * h)
            # Central differences carry O(h^2 * C''') truncation error, which
            # dominates near the stationary point; the abs tolerance covers it.
            assert first == pytest.approx(fd_first, rel=1e-6, abs=2e-9)
            assert second == pytest.approx(fd_second, rel=1e-4, abs=1e-12)

    def test_stationary_and_convex_at_optimum(self, base_stats, base_costs):
        q_star = optimal_quantity(base_stats, base_costs, 100, "paper")
        first, second = cost_derivatives(base_stats, base_costs, Policy(q_star), 100, "paper")
        assert abs(first) <= 1e-12
        assert second > 0.0

    def test_convexity_on_random_pairs(self, base_stats, base_costs):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            q1, q2 = rng.uniform(1.0, 5000.0, size=2)
            w = rng.uniform(0.0, 1.0)
            mid = w * q1 + (1.0 - w) * q2

            def rate(q):
                return long_run_average_cost(
                    base_stats, base_costs, Policy(q), 100, "paper", "approx"
                )

            left = w * rate(q1) + (1.0 - w) * rate(q2)
            assert rate(mid) <= left * (1.0 + 1e-12)


class TestIntegerQuantity:
    def test_base_neighbors(self, base_stats, base_costs):
        def rate(q):
            return long_run_average_cost(
                base_stats, base_costs, Policy(float(q)), 100, "paper", "approx"
            )

        assert rate(434) < rate(433)
        assert rate(434) < rate(435)

    def test_scan_window_finds_no_better(self, base_stats, base_costs):
        best = best_integer_quantity(base_stats, base_costs, 100, "paper")
        best_rate = long_run_average_cost(
            base_stats, base_costs, Policy(float(best)), 100, "paper", "approx"
        )
        for candidate in range(best - 50, best + 51):
            rate = long_run_average_cost(
                base_stats, base_costs, Policy(float(candidate)), 100, "paper", "approx"
            )
            assert best_rate <= rate * (1.0 + 1e-12)

    def test_result_is_floor_or_ceil_and_no_worse(self, base_costs):
        for (n, t) in GRID_P:
            stats = auction_statistics(AuctionParams(n_required=n, max_time=t, arrival_rate=RATE))
            q_star = optimal_quantity(stats, base_costs, n, "paper")
            best = best_integer_quantity(stats, base_costs, n, "paper")
            lo, hi = math.floor(q_star), math.ceil(q_star)
            assert best in (lo, hi)
            other = lo if best == hi else hi
            if other >= 1:
                best_rate = long_run_average_cost(
                    stats, base_costs, Policy(float(best)), n, "paper", "approx"
                )
                other_rate = long_run_average_cost(
                    stats, base_costs, Policy(float(other)), n, "paper", "approx"
                )
                assert best_rate <= other_rate

    def test_small_optimum_falls_back_to_one(self, base_stats):
        # Tiny reorder cost pushes Q* below 1; the integer policy is 1.
        costs = CostParams(40.0, 4.0, 50.0, 10.0, 1e-6)
        assert optimal_quantity(base_stats, costs, 100, "paper") < 1.0
        assert best_integer_quantity(base_stats, costs, 100, "paper") == 1


class TestBreakdown:
    def test_frozen_terms_at_display_optimum(self, base_stats, base_costs):
        terms = cost_rate_terms(base_stats, base_costs, Policy(433.8597), 100, "paper")
        for name, expected in BASE_TERMS.items():
            assert terms[name] == pytest.approx(expected, abs=1e-6), name

    def test_terms_sum_to_rate(self, base_stats, base_costs):
        for quantity in (100.0, 433.8597, 1000.0):
            terms = cost_rate_terms(base_stats, base_costs, Policy(quantity), 100, "paper")
            total = math.fsum(terms.values())
            rate = long_run_average_cost(
                base_stats, base_costs, Policy(quantity), 100, "paper", "approx"
            )
            assert total == pytest.approx(rate, rel=1e-12)

    def test_cycle_total_is_component_sum(self, base_stats, base_costs):
        for a_mode in ("exact", "approx"):
            b = cycle_cost_breakdown(
                base_stats, base_costs, Policy(434.0), 100, "paper", a_mode
            )
            assert b.cycle_total == pytest.approx(
                b.holding + b.dispatching + b.transport + b.penalty + b.reorder, rel=1e-15
            )
            assert b.long_run_average == b.cycle_total / b.cycle_length

    def test_exact_equals_approx_when_quantity_divisible(self, base_stats, base_costs):
        exact = cycle_cost_breakdown(base_stats, base_costs, Policy(500.0), 100, "paper", "exact")
        approx = cycle_cost_breakdown(base_stats, base_costs, Policy(500.0), 100, "paper", "approx")
        assert exact.holding == pytest.approx(approx.holding, rel=1e-12)
        assert exact.cycle_length == pytest.approx(approx.cycle_length, rel=1e-12)
        assert exact.long_run_average == pytest.approx(approx.long_run_average, rel=1e-12)

    def test_exact_mode_charges_fewer_holding_units_off_grid(self, base_stats, base_costs):
        # At Q=434 the exact staircase holds A*(Q - (A-1)*N/2) = 5*234 units
        # per interval block vs the approx trapezoid 4.34*267.
        exact = cycle_cost_breakdown(base_stats, base_costs, Policy(434.0), 100, "paper", "exact")
        td = base_stats.dispatch_time_paper
        assert exact.cycle_length == pytest.approx(5.0 * td, rel=1e-15)
        assert exact.holding == pytest.approx(0.02 * td * 5.0 * (434.0 - 200.0), rel=1e-12)

    def test_zero_cost_components_drop_terms(self, base_stats):
        costs = CostParams(0.0, 0.0, 0.02, 0.0, 300.0)
        terms = cost_rate_terms(base_stats, costs, Policy(434.0), 100, "paper")
        assert terms["dispatch"] == 0.0
        assert terms["transport"] == 0.0
        assert terms["penalty"] == 0.0
        assert terms["holding_quantity"] > 0.0
        assert terms["reorder"] > 0.0


class TestNumericGuards:
    # With td = 1e-300, a 1e-30 holding rate or quantity makes each
    # denominator underflow to zero.
    @pytest.mark.parametrize(
        "operation",
        [
            lambda stats, costs: optimal_quantity(
                stats, dataclasses.replace(costs, holding_rate=1e-30), 100
            ),
            lambda stats, costs: cost_rate_terms(stats, costs, Policy(1e-30), 100),
            lambda stats, costs: cost_derivatives(stats, costs, Policy(1e-30), 100),
            lambda stats, costs: cycle_cost_breakdown(stats, costs, Policy(1e-30), 100),
        ],
        ids=["optimal_quantity", "cost_rate_terms", "cost_derivatives", "cycle_cost_breakdown"],
    )
    def test_underflowing_denominator_is_numeric_error(self, base_costs, operation):
        with pytest.raises(NumericsError, match="underflowed to zero"):
            operation(_synthetic_stats(1e-300), base_costs)

    @pytest.mark.parametrize("a_mode", ["exact", "approx"])
    def test_breakdown_names_the_first_field_that_is_not_finite(self, base_stats, a_mode):
        costs = CostParams(40.0, 1e300, 0.02, 10.0, 300.0)
        with pytest.raises(NumericsError, match=r"^expected transport is not finite: inf$"):
            cycle_cost_breakdown(base_stats, costs, Policy(1e152), 100, "paper", a_mode)


class TestSharedCycleCosts:
    """long_run_average_cost and cycle_cost_breakdown share one statement of the cycle costs."""

    @staticmethod
    def _designs(count: int):
        rng = random.Random(20261018)

        def log_uniform(lo: float, hi: float) -> float:
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        def coefficient() -> float:
            return 0.0 if rng.random() < 0.1 else log_uniform(1e-300, 1e300)

        yield _synthetic_stats(15.9), CostParams(40.0, 1e300, 0.02, 10.0, 300.0), 1e152, 100
        for _ in range(count - 1):
            if rng.random() < 0.5:
                # Designs near the base scenario: finite rates, both A branches.
                stats = AuctionStatistics(
                    0.5, 1.0, 1.0, log_uniform(1e-3, 10.0),
                    log_uniform(1.0, 100.0), log_uniform(1.0, 100.0),
                )
                costs = CostParams(*(log_uniform(1e-3, 1e3) for _ in range(5)))
                yield stats, costs, log_uniform(1.0, 1e4), rng.randint(1, 3000)
            else:
                # Anywhere in double range: overflowing, underflowing and zero terms.
                stats = AuctionStatistics(
                    0.5, 1.0, 1.0, coefficient(),
                    log_uniform(1e-300, 1e300), log_uniform(1e-300, 1e300),
                )
                costs = CostParams(*(coefficient() for _ in range(5)))
                yield stats, costs, log_uniform(1e-300, 1e300), rng.randint(1, 10**6)

    def test_rate_is_the_breakdown_ratio_bit_for_bit(self):
        outcomes = {"equal": 0, "raised": 0}
        for stats, costs, quantity, n_required in self._designs(10_000):
            policy = Policy(quantity)
            for td_mode in ("paper", "consistent"):
                for a_mode in ("approx", "exact"):
                    args = (stats, costs, policy, n_required, td_mode, a_mode)
                    try:
                        expected = cycle_cost_breakdown(*args).long_run_average
                    except NumericsError as exc:
                        with pytest.raises(NumericsError) as raised:
                            long_run_average_cost(*args)
                        assert str(raised.value) == str(exc)
                        outcomes["raised"] += 1
                        continue
                    assert long_run_average_cost(*args).hex() == expected.hex()
                    outcomes["equal"] += 1
        assert min(outcomes.values()) >= 5_000, outcomes

    def test_rate_checks_the_dispatch_mode(self, base_stats, base_costs):
        for operation in (cycle_cost_breakdown, long_run_average_cost):
            with pytest.raises(ParameterError, match="^a_mode must be one of"):
                operation(base_stats, base_costs, Policy(434.0), 100, "paper", "weird")

    def test_rate_builds_no_breakdown(self, base_stats, base_costs):
        with mock.patch.object(
            costmodel, "CostBreakdown", wraps=costmodel.CostBreakdown
        ) as breakdown:
            for a_mode in ("approx", "exact"):
                long_run_average_cost(base_stats, base_costs, Policy(434.0), 100, "paper", a_mode)
            best_integer_quantity(base_stats, base_costs, 100, "paper")
            assert breakdown.call_count == 0
            cycle_cost_breakdown(base_stats, base_costs, Policy(434.0), 100)
            assert breakdown.call_count == 1


class TestSelfConsistency:
    def test_closed_form_matches_direct_rate_at_optimum(self, base_costs):
        for (n, t) in GRID_P:
            stats = auction_statistics(AuctionParams(n_required=n, max_time=t, arrival_rate=RATE))
            q_star = optimal_quantity(stats, base_costs, n, "paper")
            closed = optimal_cost(stats, base_costs, n, "paper")
            direct = long_run_average_cost(
                stats, base_costs, Policy(q_star), n, "paper", "approx"
            )
            assert abs(closed - direct) / closed <= 1e-9


class TestEoqLimit:
    def test_exact_equality_with_unbounded_window(self, base_costs):
        stats = auction_statistics(
            AuctionParams(n_required=100, max_time=math.inf, arrival_rate=14.0)
        )
        assert optimal_quantity(stats, base_costs, 100, "paper") == eoq_limit(base_costs, 14.0)

    def test_base_value(self, base_costs):
        assert eoq_limit(base_costs, 14.0) == pytest.approx(EOQ_BASE, rel=1e-12)

    def test_long_window_converges(self, base_costs):
        stats = auction_statistics(AuctionParams(n_required=100, max_time=1e5, arrival_rate=14.0))
        q_long = optimal_quantity(stats, base_costs, 100, "paper")
        assert q_long == pytest.approx(eoq_limit(base_costs, 14.0), rel=1e-3)

    def test_validation(self, base_costs):
        with pytest.raises(ParameterError):
            eoq_limit(base_costs, 0.0)
        with pytest.raises(ParameterError):
            eoq_limit(CostParams(40.0, 4.0, 0.0, 10.0, 300.0), 14.0)

    def test_overflow_is_numeric_error(self):
        costs = CostParams(40.0, 4.0, 1e-5, 10.0, 1e300)
        with pytest.raises(NumericsError, match="eoq limit is not finite: inf"):
            eoq_limit(costs, 1e10)


class TestDispatchesPerCycle:
    def test_exact_is_ceiling(self):
        assert dispatches_per_cycle(434.0, 100, "exact") == 5.0
        assert dispatches_per_cycle(400.0, 100, "exact") == 4.0
        assert dispatches_per_cycle(100.0, 100, "exact") == 1.0
        assert dispatches_per_cycle(50.0, 100, "exact") == 1.0

    def test_exact_counts_one_batch_for_any_positive_quantity(self):
        # The float 5e-324 / 100 underflows to 0.0.
        assert dispatches_per_cycle(5e-324, 100, "exact") == 1.0

    @settings(max_examples=300, deadline=None)
    @given(
        quantity=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        n_required=st.integers(min_value=1, max_value=10**18),
    )
    @example(quantity=5e-324, n_required=100)
    @example(quantity=1e-300, n_required=10**18)
    # The float ratio rounds to 7.773621576083538e16, one float below the ceiling.
    @example(quantity=5.721385479997484e19, n_required=736)
    def test_exact_is_the_exact_ceiling(self, quantity, n_required):
        exact = math.ceil(Fraction(quantity) / n_required)
        assert dispatches_per_cycle(quantity, n_required, "exact") == float(exact)

    def test_approx_is_ratio(self):
        assert dispatches_per_cycle(434.0, 100, "approx") == 4.34
        assert dispatches_per_cycle(50.0, 100, "approx") == 0.5

    def test_validation(self):
        with pytest.raises(ParameterError):
            dispatches_per_cycle(0.0, 100, "exact")
        with pytest.raises(ParameterError):
            dispatches_per_cycle(100.0, 0, "exact")
        with pytest.raises(ParameterError):
            dispatches_per_cycle(100.0, 100, "weird")


class TestParamValidation:
    def test_cost_params_reject_negative_and_non_finite(self):
        with pytest.raises(ParameterError):
            CostParams(-1.0, 4.0, 0.02, 10.0, 300.0)
        with pytest.raises(ParameterError):
            CostParams(40.0, 4.0, math.nan, 10.0, 300.0)
        with pytest.raises(ParameterError):
            CostParams(40.0, 4.0, 0.02, math.inf, 300.0)

    def test_cost_params_allow_zero(self):
        CostParams(0.0, 0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("n_required,message", [
        (0, "n_required must be >= 1, got 0"),
        (True, "n_required must be an integer"),
        (100.0, "n_required must be an integer"),
    ])
    def test_every_cost_function_checks_n_required(
        self, base_stats, base_costs, n_required, message
    ):
        policy = Policy(434.0)
        calls = [
            lambda: dispatches_per_cycle(434.0, n_required),
            lambda: cycle_cost_breakdown(base_stats, base_costs, policy, n_required),
            lambda: long_run_average_cost(base_stats, base_costs, policy, n_required),
            lambda: cost_rate_terms(base_stats, base_costs, policy, n_required),
            lambda: cost_derivatives(base_stats, base_costs, policy, n_required),
            lambda: optimal_quantity(base_stats, base_costs, n_required),
            lambda: best_integer_quantity(base_stats, base_costs, n_required),
            lambda: optimal_cost(base_stats, base_costs, n_required),
        ]
        for call in calls:
            with pytest.raises(ParameterError, match=f"^{message}$"):
                call()

    def test_policy_rejects_non_positive(self):
        for quantity in (0.0, -5.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                Policy(quantity)
