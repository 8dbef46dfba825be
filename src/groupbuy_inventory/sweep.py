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

import math
import operator
from typing import Iterable, Sequence

# The three public optimum names go unused here; perfbench's trace replay patches them.
from .costmodel import (  # noqa: F401
    CostParams,
    Policy,
    _optimum,
    best_integer_quantity,
    optimal_cost,
    optimal_quantity,
)
from .errors import (
    GroupBuyError,
    NumericsError,
    ParameterError,
    check_choice,
    check_float,
    check_int,
    record,
    replace,
)
from .settings import REPORT_FORMATS, SimulationConfig
from .stochastics import TD_MODES, AuctionParams, TdMode, auction_statistics

# Most cells one sweep may evaluate. A closed-form cell costs about 35 us,
# and 1.4 kB at the peak of a JSON report: 246,078 cells took 8.4 to 9.9 s
# and peaked at 336 MB through the CLI (2-vCPU VM, Python 3.11).
_MAX_CELLS = 250_000

@record
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
        for name in self._names[:3]:  # the three axes
            if len(getattr(self, name)) == 0:
                raise ParameterError(f"{name} must be non-empty")
        check_choice("td_mode", self.td_mode, TD_MODES)


@record
class SweepRow:
    """One evaluated grid cell.

    The fields before error are the report columns, in order: CSV_COLUMNS
    holds their names, with arrival_rate spelled lambda.
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


CSV_COLUMNS: tuple[str, ...] = tuple(
    "lambda" if name == "arrival_rate" else name for name in SweepRow._names[:-1]
)


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
    return replace(row, error=f"simulation: {type(exc).__name__}: {exc}")


def _float_axis(name: str, values: Sequence[float]) -> list[float]:
    entries = set()
    for value in values:
        # Each entry is a number, which text is not, though float() reads it.
        try:
            if isinstance(value, (str, bytes, bytearray)):
                raise TypeError
            entries.add(float(value))
        except OverflowError:
            check_float(f"{name} entry", value)
            raise
        except (TypeError, ValueError):
            raise ParameterError(f"{name} entry must be a number, got {value!r}") from None
    axis = sorted(entries)
    # NaN has no place in a sorted axis, and no JSON spelling.
    if any(map(math.isnan, axis)):
        raise ParameterError(f"{name} entry must not be NaN")
    return axis


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid cell in lexicographic (n, t, lambda) order.

    Axes are deduplicated and sorted ascending first, so the row order is
    a deterministic function of the axis sets. Always returns one row per
    cell; failed cells carry an error marker instead of numbers. Each
    entry is checked before its axis is deduplicated: run_sweep raises
    ParameterError before the first cell for an n_values entry that is not
    an integer, and a t_values or lambda_values entry that is text, not a
    number, NaN or an int past the float range. It raises NumericsError
    before the first cell when the grid holds more than _MAX_CELLS cells,
    and before the first simulation when the simulator's _check_budget
    refuses the cells' simulations together.
    """
    for value in spec.n_values:
        check_int("n_values entry", value)
    n_axis = sorted(set(spec.n_values))
    t_axis = _float_axis("t_values", spec.t_values)
    rate_axis = _float_axis("lambda_values", spec.lambda_values)
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
                planned[index] = auction, _plan(auction, policy, config, False)
            except GroupBuyError as exc:
                rows[index] = _simulation_failed(row, exc)
    if planned:  # with no cell to simulate there is nothing to refuse
        work = sum(plan.work for _, plan in planned.values())
        _check_budget(work / len(planned), "units", len(planned), config)
    for index, (auction, plan) in planned.items():
        row = rows[index]
        try:
            # Stream 0 in every cell, as common random numbers: neighbouring deltas err alike.
            result = _run(auction, spec.costs, config, plan, 0, None)
        except GroupBuyError as exc:
            rows[index] = _simulation_failed(row, exc)
            continue
        rows[index] = replace(
            row,
            sim_cost=result.long_run_cost,
            sim_halfwidth=result.long_run_cost_halfwidth,
            delta=result.long_run_cost - row.optimal_cost,
        )
    return rows


def _format_numbers(values: Iterable[float | int | None]) -> list[str]:
    # The one 6-significant-digit rule, a whole row per call: "" for None, str
    # for an int, %g for anything else. Floats are tested first, as most
    # cells are floats.
    return [
        f"{v:.6g}" if isinstance(v, float) or not (v is None or isinstance(v, int))
        else "" if v is None else str(v)
        for v in values
    ]


# A row's report cells: every SweepRow field but the last one, error.
_row_cells = operator.attrgetter(*SweepRow._names[:-1])
_GRIDS = {"success probability": "p_success", "expected dispatch time": "dispatch_time",
          "optimal quantity (integer)": "q_star_integer", "optimal cost rate": "optimal_cost"}
# A row's cells in the markdown grids, in _GRIDS order, and in its simulation table.
_grid_cells = operator.attrgetter(*_GRIDS.values())
_SIM_COLUMNS = ("t", "sim_cost", "sim_halfwidth", "delta")
_sim_cells = operator.attrgetter(*_SIM_COLUMNS)


def _emit_csv(rows: Sequence[SweepRow]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(_format_numbers(_row_cells(row))) for row in rows)
    return "\n".join(lines) + "\n"


def _json_float(cell: float, text: str) -> str:
    # The text json.dumps(..., allow_nan=False) gives the float whose CSV
    # text, the 6-significant-digit value, is text: that float's repr. RFC
    # 8259 has no infinity; an infinite cell is the string "inf" or "-inf",
    # which float() parses back like the CSV cell.
    if text.endswith("inf"):
        return f'"{text}"'
    if text == "nan":
        raise ValueError(f"Out of range float values are not JSON compliant: {cell!r}")
    return repr(float(text))


# One report object in json.dumps(payload, indent=2)'s layout, a %s per column.
_JSON_OBJECT = "  {\n" + ",\n".join(f'    "{name}": %s' for name in CSV_COLUMNS) + "\n  }"


def _json_texts(row: SweepRow) -> tuple[str, ...]:
    # Each cell in JSON's spelling: a float's CSV text, which is already JSON
    # when positional with a point; null for None; str for anything else.
    cells = _row_cells(row)
    return tuple([
        (text if "." in text and "e" not in text else _json_float(cell, text))
        if isinstance(cell, float) else "null" if cell is None else str(cell)
        for cell, text in zip(cells, _format_numbers(cells))
    ])


def _emit_json(rows: Sequence[SweepRow]) -> str:
    objects = (_JSON_OBJECT % _json_texts(row) for row in rows)
    return "[\n" + ",\n".join(objects) + "\n]\n"


def _emit_markdown(rows: Sequence[SweepRow]) -> str:
    lines = ["# Replenishment policy sweep", ""]
    for rate in sorted({row.arrival_rate for row in rows}):
        group = [row for row in rows if row.arrival_rate == rate]
        t_axis = sorted({row.t for row in group})
        by_cell = {(row.n, row.t): _format_numbers(_grid_cells(row)) for row in group}
        # Each table row's grid texts, None where the grid has no row.
        grid = [
            (n, [by_cell.get((n, t)) for t in t_axis]) for n in sorted({row.n for row in group})
        ]
        header = (
            "| n \\ t | " + " | ".join(_format_numbers(t_axis)) + " |",
            "| --- |" + " --- |" * len(t_axis),
        )
        lines.append(f"## arrival_rate = {_format_numbers((rate,))[0]}")
        lines.append("")
        for column, title in enumerate(_GRIDS):
            lines.append(f"### {title}")
            lines.append("")
            lines.extend(header)
            for n, cells in grid:
                values = ["" if texts is None else texts[column] or "ERR" for texts in cells]
                lines.append(f"| {n} | {' | '.join(values)} |")
            lines.append("")
        sim_rows = [row for row in group if row.sim_cost is not None]
        if sim_rows:
            lines.append("### simulation cross-check")
            lines.append("")
            lines.append(f"| n | {' | '.join(_SIM_COLUMNS)} |")
            lines.append("| --- |" + " --- |" * len(_SIM_COLUMNS))
            for row in sim_rows:
                lines.append(f"| {row.n} | {' | '.join(_format_numbers(_sim_cells(row)))} |")
            lines.append("")
        errors = [row for row in group if row.error is not None]
        if errors:
            lines.append("### errors")
            lines.append("")
            for row in errors:
                lines.append(f"- n={row.n} t={_format_numbers((row.t,))[0]}: {row.error}")
            lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


_EMITTERS = dict(zip(REPORT_FORMATS, (_emit_csv, _emit_json, _emit_markdown), strict=True))


def emit_report(rows: Sequence[SweepRow], format: str = "csv") -> str:
    """Render sweep rows as one of "csv", "json" or "markdown".

    CSV: fixed 11-column header, one line per row, empty cells for missing
    values. JSON (RFC 8259): an array of objects with exactly the CSV
    column names; each number is its CSV cell's text in JSON's spelling,
    missing values are null and an infinite cell is the string "inf" or
    "-inf"; a NaN cell raises ValueError.
    Markdown: per-arrival-rate grid tables with "ERR" in failed cells plus
    an error list. Output is byte-deterministic for equal rows.
    """
    if len(rows) == 0:
        raise ParameterError("rows must be non-empty")
    check_choice("format", format, REPORT_FORMATS)
    return _EMITTERS[format](rows)
