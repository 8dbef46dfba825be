"""Replenishment analytics for inventory systems serving group-buying auctions.

The package splits into closed-form statistics of the auction mechanism
(stochastics), the renewal cost model and its optimal order quantity
(costmodel), a discrete-event Monte Carlo cross-check (simulator),
parameter sweeps with deterministic reports (sweep), the settings they
share (settings) and a command-line front end (cli, with its run
configuration in runconfig and the simulate and validate reports in
simulation_report and validation).

Importing the package loads none of them: each public name below, and
each submodule, is imported on first access (PEP 562) and then kept as a
plain module global, so a program loads only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Every public name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "A_MODES",
            "AMode",
            "CostBreakdown",
            "CostParams",
            "Policy",
            "best_integer_quantity",
            "cost_derivatives",
            "cost_rate_terms",
            "cycle_cost_breakdown",
            "dispatches_per_cycle",
            "eoq_limit",
            "long_run_average_cost",
            "optimal_cost",
            "optimal_quantity",
        ),
        "costmodel",
    ),
    **dict.fromkeys(
        (
            "ConfigError",
            "DegenerateAuctionError",
            "DomainError",
            "GroupBuyError",
            "NumericsError",
            "ParameterError",
        ),
        "errors",
    ),
    **dict.fromkeys(
        (
            "DURATION_SAMPLERS",
            "REPORT_FORMATS",
            "SHORTFALL_RULES",
            "DurationSampler",
            "ShortfallRule",
            "SimulationConfig",
        ),
        "settings",
    ),
    **dict.fromkeys(
        ("SimulationCounts", "SimulationResult", "replicate", "rng_stream", "simulate"),
        "simulator",
    ),
    **dict.fromkeys(
        (
            "MIN_SUCCESS_PROBABILITY",
            "TD_MODES",
            "AuctionParams",
            "AuctionStatistics",
            "TdMode",
            "auction_statistics",
            "erlang_pdf",
            "regularized_lower_gamma",
            "success_probability",
            "success_probability_poisson_tail",
        ),
        "stochastics",
    ),
    **dict.fromkeys(("CSV_COLUMNS", "SweepRow", "SweepSpec", "emit_report", "run_sweep"), "sweep"),
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "runconfig", "simulation_report", "validation"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # Importing a submodule binds it as an attribute of the package.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
