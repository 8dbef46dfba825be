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
import json
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
from .errors import GroupBuyError, ParameterError, check_choice, check_int
from .simulator import SimulationConfig, simulate
from .stochastics import TD_MODES, AuctionParams, TdMode, auction_statistics

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
        (an unbounded window, or more bidding windows than the simulator's
        budget) keeps its closed-form numbers and gets an error naming the
        simulation.
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
    try:
        params = AuctionParams(n_required=n, max_time=t, arrival_rate=rate)
        stats = auction_statistics(params)
        td, q_star, q_int, cost_star = _optimum(stats, spec.costs, n, spec.td_mode)
    except GroupBuyError as exc:
        return SweepRow(n=n, t=t, arrival_rate=rate, error=f"{type(exc).__name__}: {exc}")
    row = SweepRow(
        n=n,
        t=t,
        arrival_rate=rate,
        p_success=stats.p_success,
        dispatch_time=td,
        q_star_real=q_star,
        q_star_integer=q_int,
        optimal_cost=cost_star,
    )
    if spec.simulation is None:
        return row
    # A failed simulation keeps the cell's closed-form numbers.
    try:
        result = simulate(params, spec.costs, Policy(q_star), spec.simulation)
    except GroupBuyError as exc:
        return dataclasses.replace(row, error=f"simulation: {type(exc).__name__}: {exc}")
    return dataclasses.replace(
        row,
        sim_cost=result.long_run_cost,
        sim_halfwidth=result.long_run_cost_halfwidth,
        delta=result.long_run_cost - cost_star,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid cell in lexicographic (n, t, lambda) order.

    Axes are deduplicated and sorted ascending first, so the row order is
    a deterministic function of the axis sets. Always returns one row per
    cell; failed cells carry an error marker instead of numbers.
    """
    n_axis = sorted(set(spec.n_values))
    for value in n_axis:
        check_int("n_values entry", value)
    t_axis = [float(v) for v in sorted(set(spec.t_values))]
    rate_axis = [float(v) for v in sorted(set(spec.lambda_values))]
    return [
        _evaluate_cell(n, t, rate, spec)
        for n in n_axis
        for t in t_axis
        for rate in rate_axis
    ]


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
        lines.append(",".join(_format_number(cell) for cell in _row_cells(row)))
    return "\n".join(lines) + "\n"


def _json_number(cell: float) -> float | str:
    # RFC 8259 has no infinity; an unbounded window is the string "inf",
    # which float() parses back like the CSV cell.
    return "inf" if math.isinf(cell) else float(_format_number(cell))


# json.dumps(payload, indent=2, allow_nan=False)'s bytes without its pure-Python
# encoder (CPython 3.11 uses it for any indent): separators stand in for indent.
_encode_object = json.JSONEncoder(allow_nan=False, separators=(",\n    ", ": ")).encode


def _emit_json(rows: Sequence[SweepRow]) -> str:
    # Floats carry the same 6-significant-digit values the CSV prints.
    objects = (
        _encode_object({
            name: _json_number(cell) if isinstance(cell, float) else cell
            for name, cell in zip(CSV_COLUMNS, _row_cells(row))
        })[1:-1]
        for row in rows
    )
    return "[\n  {\n    " + "\n  },\n  {\n    ".join(objects) + "\n  }\n]\n"


def _grid_table(
    group: Sequence[SweepRow],
    n_axis: Sequence[int],
    t_axis: Sequence[float],
    field: str,
) -> list[str]:
    by_cell = {(row.n, row.t): row for row in group}
    lines = ["| n \\ t | " + " | ".join(_format_number(t) for t in t_axis) + " |"]
    lines.append("| --- |" + " --- |" * len(t_axis))
    for n in n_axis:
        cells = []
        for t in t_axis:
            row = by_cell.get((n, t))
            if row is None:
                cells.append("")
            elif getattr(row, field) is None:
                cells.append("ERR")
            else:
                cells.append(_format_number(getattr(row, field)))
        lines.append(f"| {n} | " + " | ".join(cells) + " |")
    return lines


def _emit_markdown(rows: Sequence[SweepRow]) -> str:
    lines = ["# Replenishment policy sweep", ""]
    for rate in sorted({row.arrival_rate for row in rows}):
        group = [row for row in rows if row.arrival_rate == rate]
        n_axis = sorted({row.n for row in group})
        t_axis = sorted({row.t for row in group})
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
            lines.extend(_grid_table(group, n_axis, t_axis, field))
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


_EMITTERS = {"csv": _emit_csv, "json": _emit_json, "markdown": _emit_markdown}
REPORT_FORMATS: tuple[str, ...] = tuple(_EMITTERS)


def emit_report(rows: Sequence[SweepRow], format: str = "csv") -> str:
    """Render sweep rows as one of "csv", "json" or "markdown".

    CSV: fixed 11-column header, one line per row, empty cells for missing
    values. JSON (RFC 8259): an array of objects with exactly the CSV
    column names; missing values are null and an unbounded window is the
    string "inf". Markdown: per-arrival-rate grid tables with "ERR" in
    failed cells plus an error list. Output is byte-deterministic for equal
    rows.
    """
    if len(rows) == 0:
        raise ParameterError("rows must be non-empty")
    check_choice("format", format, REPORT_FORMATS)
    return _EMITTERS[format](rows)
