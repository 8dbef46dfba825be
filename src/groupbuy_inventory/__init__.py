"""Replenishment analytics for inventory systems serving group-buying auctions.

The package splits into closed-form statistics of the auction mechanism
(stochastics), the renewal cost model and its optimal order quantity
(costmodel), a discrete-event Monte Carlo cross-check (simulator),
parameter sweeps with deterministic reports (sweep) and a command-line
front end (cli).
"""

from .costmodel import (
    A_MODES,
    AMode,
    CostBreakdown,
    CostParams,
    Policy,
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
from .errors import (
    ConfigError,
    DegenerateAuctionError,
    DomainError,
    GroupBuyError,
    NumericsError,
    ParameterError,
)
from .simulator import (
    DURATION_SAMPLERS,
    SHORTFALL_RULES,
    DurationSampler,
    ShortfallRule,
    SimulationConfig,
    SimulationCounts,
    SimulationResult,
    replicate,
    rng_stream,
    simulate,
)
from .stochastics import (
    MIN_SUCCESS_PROBABILITY,
    TD_MODES,
    AuctionParams,
    AuctionStatistics,
    TdMode,
    auction_statistics,
    erlang_pdf,
    regularized_lower_gamma,
    success_probability,
    success_probability_poisson_tail,
)
from .sweep import CSV_COLUMNS, REPORT_FORMATS, SweepRow, SweepSpec, emit_report, run_sweep

__version__ = "0.1.0"

__all__ = [
    "A_MODES",
    "AMode",
    "AuctionParams",
    "AuctionStatistics",
    "CSV_COLUMNS",
    "ConfigError",
    "CostBreakdown",
    "CostParams",
    "DURATION_SAMPLERS",
    "DegenerateAuctionError",
    "DomainError",
    "DurationSampler",
    "GroupBuyError",
    "MIN_SUCCESS_PROBABILITY",
    "NumericsError",
    "ParameterError",
    "Policy",
    "REPORT_FORMATS",
    "SHORTFALL_RULES",
    "ShortfallRule",
    "SimulationConfig",
    "SimulationCounts",
    "SimulationResult",
    "SweepRow",
    "SweepSpec",
    "TD_MODES",
    "TdMode",
    "auction_statistics",
    "best_integer_quantity",
    "cost_derivatives",
    "cost_rate_terms",
    "cycle_cost_breakdown",
    "dispatches_per_cycle",
    "emit_report",
    "eoq_limit",
    "erlang_pdf",
    "long_run_average_cost",
    "optimal_cost",
    "optimal_quantity",
    "regularized_lower_gamma",
    "replicate",
    "rng_stream",
    "run_sweep",
    "simulate",
    "success_probability",
    "success_probability_poisson_tail",
]
