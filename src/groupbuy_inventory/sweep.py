"""Parameter sweeps over auction designs, with CSV/JSON/markdown reports.

A sweep evaluates the closed-form pipeline (success probability, dispatch
time, optimal quantity, optimal cost rate) on the cartesian grid of batch
sizes, window lengths and arrival rates, optionally cross-checking each
cell with a simulation run at the real-valued optimum. Cells whose
evaluation raises a package error are kept in the output with an error
marker instead of aborting the sweep.

Reports are deterministic byte-for-byte for equal inputs. Numbers are
rendered with 6 significant digits (Python's round-half-even %g), so a
CSV report parsed back agrees with the JSON report exactly.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Sequence

# The three public optimum names go unused here; perfbench's trace replay patches them.
from .costmodel import (  # noqa: F401
    CostParams,
    Policy,
    _optimum,
    best_integer_quantity,
    optimal_cost,
    optimal_quantity,
)
from .errors import GroupBuyError, NumericsError, ParameterError, check_choice, check_int
from .settings import REPORT_FORMATS, SimulationConfig
from .stochastics import TD_MODES, AuctionParams, TdMode, auction_statistics

# Most cells one sweep may evaluate. A closed-form cell costs about 40 us,
# and 1 kB at the peak of a JSON report: 250,047 cells took 10 s and
# peaked at 259 MB through the CLI.
_MAX_CELLS = 250_000

CSV_COLUMNS: tuple[str, ...] = (
    "n",
    "t",
    "lambda",
    "p_success",
    "dispatch_time",
    "q_star_real",
    "q_star_integer",
    "optimal_cost",
    "sim_cost",
    "sim_halfwidth",
    "delta",
)


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one sweep.

    n_values, t_values, lambda_values: grid axes (batch size, window
        length, arrival rate). Deduplicated and sorted ascending before
        evaluation.
    costs: cost coefficients shared by every cell.
    td_mode: dispatch-time mode used for the optimization in every cell.
    simulation: when given, each successful cell also runs one simulation
        at the real-valued optimal quantity. A cell whose simulation fails
        (an unbounded window, say) keeps its closed-form numbers and gets
        an error naming the simulation. The simulator's _check_budget
        checks the simulations together before the first of them runs.
        Every cell runs on stream 0, as common random numbers: the errors
        of neighbouring cells' delta are correlated, and each cell's
        halfwidth holds for that cell alone.
    """

    n_values: Sequence[int]
    t_values: Sequence[float]
    lambda_values: Sequence[float]
    costs: CostParams
    td_mode: TdMode = "paper"
    simulation: SimulationConfig | None = None

    def __post_init__(self) -> None:
        for name in ("n_values", "t_values", "lambda_values"):
            if len(getattr(self, name)) == 0:
                raise ParameterError(f"{name} must be non-empty")
        check_choice("td_mode", self.td_mode, TD_MODES)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated grid cell.

    The fields before error are the report columns, in CSV_COLUMNS order.
    The numeric fields are None because the cell's closed forms failed
    (error holds the reason) or, for the sim_* fields only, because the
    sweep ran without simulation or the cell's simulation failed (error
    then starts with "simulation: "). delta is sim_cost - optimal_cost.
    """

    n: int
    t: float
    arrival_rate: float
    p_success: float | None = None
    dispatch_time: float | None = None
    q_star_real: float | None = None
    q_star_integer: int | None = None
    optimal_cost: float | None = None
    sim_cost: float | None = None
    sim_halfwidth: float | None = None
    delta: float | None = None
    error: str | None = None


def _evaluate_cell(n: int, t: float, rate: float, spec: SweepSpec) -> SweepRow:
    # Positional arguments in field order: keyword binding is a measurable
    # share of a cell's time.
    try:
        stats = auction_statistics(AuctionParams(n, t, rate))
        td, q_star, q_int, cost_star = _optimum(stats, spec.costs, n, spec.td_mode)
    except GroupBuyError as exc:
        return SweepRow(n, t, rate, error=f"{type(exc).__name__}: {exc}")
    return SweepRow(n, t, rate, stats.p_success, td, q_star, q_int, cost_star)


def _simulation_failed(row: SweepRow, exc: GroupBuyError) -> SweepRow:
    # A failed simulation keeps the cell's closed-form numbers.
    return dataclasses.replace(row, error=f"simulation: {type(exc).__name__}: {exc}")


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid cell in lexicographic (n, t, lambda) order.

    Axes are deduplicated and sorted ascending first, so the row order is
    a deterministic function of the axis sets. Always returns one row per
    cell; failed cells carry an error marker instead of numbers. Raises
    NumericsError before the first cell when the grid holds more than
    _MAX_CELLS cells, and before the first simulation when the
    simulator's _check_budget refuses the cells' simulations together.
    """
    n_axis = sorted(set(spec.n_values))
    for value in n_axis:
        check_int("n_values entry", value)
    t_axis = [float(v) for v in sorted(set(spec.t_values))]
    rate_axis = [float(v) for v in sorted(set(spec.lambda_values))]
    cells = len(n_axis) * len(t_axis) * len(rate_axis)
    if cells > _MAX_CELLS:
        raise NumericsError(
            f"sweep would evaluate {cells} cells, over the budget of {_MAX_CELLS}; "
            "use fewer axis values"
        )
    rows = [
        _evaluate_cell(n, t, rate, spec)
        for n in n_axis
        for t in t_axis
        for rate in rate_axis
    ]
    config = spec.simulation
    if config is None:
        return rows
    from .simulator import _check_budget, _plan, _run

    planned = {}
    for index, row in enumerate(rows):
        if row.error is None:
            try:
                auction = AuctionParams(row.n, row.t, row.arrival_rate)
                policy = Policy(row.q_star_real)
                planned[index] = auction, policy, _plan(auction, policy, config, False)
            except GroupBuyError as exc:
                rows[index] = _simulation_failed(row, exc)
    _check_budget(sum(plan.work for _, _, plan in planned.values()), "units", len(planned), config)
    for index, (auction, policy, plan) in planned.items():
        row = rows[index]
        try:
            # Stream 0 in every cell, as common random numbers: neighbouring deltas err alike.
            result = _run(auction, spec.costs, policy, config, plan, 0, None)
        except GroupBuyError as exc:
            rows[index] = _simulation_failed(row, exc)
            continue
        rows[index] = dataclasses.replace(
            row,
            sim_cost=result.long_run_cost,
            sim_halfwidth=result.long_run_cost_halfwidth,
            delta=result.long_run_cost - row.optimal_cost,
        )
    return rows


def _format_number(value: float | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


# A row's report cells: every SweepRow field but the last one, error.
_row_cells = operator.attrgetter(*(field.name for field in dataclasses.fields(SweepRow)[:-1]))


def _emit_csv(rows: Sequence[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(map(_format_number, _row_cells(row))))
    return "\n".join(lines) + "\n"


def _json_value(cell: float | int | None) -> str:
    # The text json.dumps(..., allow_nan=False) gives the value, for floats
    # the 6-significant-digit value the CSV prints. That value's repr is the
    # CSV text itself, with ".0" after positional text that has no point,
    # except where repr writes positional digits for exponents 6 to 15, or
    # fewer digits for a subnormal. RFC 8259 has no infinity; an unbounded
    # window is the string "inf", which float() parses back like the CSV
    # cell.
    if isinstance(cell, float):
        if math.isfinite(cell):
            text = _format_number(cell)
            if "e" not in text:
                return text if "." in text else text + ".0"
            exponent = int(text.partition("e")[2])
            if 6 <= exponent <= 15 or exponent <= -308:
                return repr(float(text))
            return text
        if math.isnan(cell):
            raise ValueError(f"Out of range float values are not JSON compliant: {cell!r}")
        return '"inf"'
    return "null" if cell is None else str(cell)


# One report object in json.dumps(payload, indent=2)'s layout, a {} per column.
_JSON_OBJECT = "  {{\n" + ",\n".join(f'    "{name}": {{}}' for name in CSV_COLUMNS) + "\n  }}"


def _emit_json(rows: Sequence[SweepRow]) -> str:
    objects = (_JSON_OBJECT.format(*map(_json_value, _row_cells(row))) for row in rows)
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _grid_cell(row: SweepRow | None, field: str) -> str:
    if row is None:
        return ""
    value = getattr(row, field)
    return "ERR" if value is None else _format_number(value)


def _emit_markdown(rows: Sequence[SweepRow]) -> str:
    lines = ["# Replenishment policy sweep", ""]
    for rate in sorted({row.arrival_rate for row in rows}):
        group = [row for row in rows if row.arrival_rate == rate]
        t_axis = sorted({row.t for row in group})
        by_cell = {(row.n, row.t): row for row in group}
        # Each table row's cells, None where the grid has no row.
        grid = [
            (n, [by_cell.get((n, t)) for t in t_axis]) for n in sorted({row.n for row in group})
        ]
        header = (
            "| n \\ t | " + " | ".join(_format_number(t) for t in t_axis) + " |",
            "| --- |" + " --- |" * len(t_axis),
        )
        lines.append(f"## arrival_rate = {_format_number(rate)}")
        lines.append("")
        for title, field in (
            ("success probability", "p_success"),
            ("expected dispatch time", "dispatch_time"),
            ("optimal quantity (integer)", "q_star_integer"),
            ("optimal cost rate", "optimal_cost"),
        ):
            lines.append(f"### {title}")
            lines.append("")
            lines.extend(header)
            for n, cells in grid:
                values = " | ".join(_grid_cell(row, field) for row in cells)
                lines.append(f"| {n} | {values} |")
            lines.append("")
        sim_rows = [row for row in group if row.sim_cost is not None]
        if sim_rows:
            lines.append("### simulation cross-check")
            lines.append("")
            lines.append("| n | t | sim_cost | sim_halfwidth | delta |")
            lines.append("| --- | --- | --- | --- | --- |")
            for row in sim_rows:
                lines.append(
                    f"| {row.n} | {_format_number(row.t)} | {_format_number(row.sim_cost)} "
                    f"| {_format_number(row.sim_halfwidth)} | {_format_number(row.delta)} |"
                )
            lines.append("")
        errors = [row for row in group if row.error is not None]
        if errors:
            lines.append("### errors")
            lines.append("")
            for row in errors:
                lines.append(f"- n={row.n} t={_format_number(row.t)}: {row.error}")
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


_EMITTERS = dict(zip(REPORT_FORMATS, (_emit_csv, _emit_json, _emit_markdown), strict=True))


def emit_report(rows: Sequence[SweepRow], format: str = "csv") -> str:
    """Render sweep rows as one of "csv", "json" or "markdown".

    CSV: fixed 11-column header, one line per row, empty cells for missing
    values. JSON (RFC 8259): an array of objects with exactly the CSV
    column names; each number is its CSV cell's text in JSON's spelling,
    missing values are null and an unbounded window is the string "inf".
    Markdown: per-arrival-rate grid tables with "ERR" in failed cells plus
    an error list. Output is byte-deterministic for equal rows.
    """
    if len(rows) == 0:
        raise ParameterError("rows must be non-empty")
    check_choice("format", format, REPORT_FORMATS)
    return _EMITTERS[format](rows)
