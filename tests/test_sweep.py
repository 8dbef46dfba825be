import dataclasses
import json
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupbuy_inventory import (
    CSV_COLUMNS,
    ParameterError,
    SimulationConfig,
    SweepRow,
    SweepSpec,
    costmodel,
    emit_report,
    run_sweep,
)
from reference_values import (
    GRID_COST_ORACLE,
    GRID_P,
    GRID_Q,
    GRID_TD,
    RATE,
    SENSITIVE_CELL,
)

HEADER = "n,t,lambda,p_success,dispatch_time,q_star_real,q_star_integer,optimal_cost,sim_cost,sim_halfwidth,delta"


@pytest.fixture
def reference_spec(base_costs) -> SweepSpec:
    return SweepSpec(
        n_values=(80, 100, 120),
        t_values=(6.0, 7.0, 8.0),
        lambda_values=(RATE,),
        costs=base_costs,
        td_mode="paper",
    )


@pytest.fixture
def reference_rows(reference_spec):
    return run_sweep(reference_spec)


class TestRunSweep:
    def test_reproduces_reference_grid(self, reference_rows):
        assert len(reference_rows) == 9
        by_cell = {(row.n, row.t): row for row in reference_rows}
        for cell, expected_p in GRID_P.items():
            row = by_cell[cell]
            assert row.error is None
            assert abs(row.p_success - expected_p) <= 5e-5
            limit = 0.05 if cell == SENSITIVE_CELL else 0.01
            assert abs(row.dispatch_time - GRID_TD[cell]) / GRID_TD[cell] <= limit
            assert row.q_star_integer == GRID_Q[cell]
            assert row.optimal_cost == pytest.approx(GRID_COST_ORACLE[cell], rel=1e-7)
            assert row.sim_cost is None and row.sim_halfwidth is None and row.delta is None

    def test_lexicographic_order_after_dedup(self, base_costs):
        spec = SweepSpec(
            n_values=(120, 80, 100, 80),
            t_values=(8.0, 6.0, 7.0, 7.0),
            lambda_values=(14.0,),
            costs=base_costs,
        )
        rows = run_sweep(spec)
        observed = [(row.n, row.t, row.arrival_rate) for row in rows]
        assert observed == [
            (n, t, 14.0) for n in (80, 100, 120) for t in (6.0, 7.0, 8.0)
        ]

    def test_error_cells_are_marked_not_fatal(self, base_costs):
        spec = SweepSpec(
            n_values=(100, 500),
            t_values=(0.5, 7.0),
            lambda_values=(0.5, 14.0),
            costs=base_costs,
        )
        rows = run_sweep(spec)
        assert len(rows) == 8
        degenerate = [row for row in rows if row.error is not None]
        healthy = [row for row in rows if row.error is None]
        assert degenerate and healthy
        worst = next(row for row in rows if (row.n, row.t, row.arrival_rate) == (500, 0.5, 0.5))
        assert worst.error is not None and "DegenerateAuctionError" in worst.error
        assert worst.p_success is None
        assert worst.q_star_integer is None
        base_row = next(row for row in rows if (row.n, row.t, row.arrival_rate) == (100, 7.0, 14.0))
        assert base_row.error is None
        assert base_row.q_star_integer == 434

    def test_simulation_columns(self, base_costs):
        spec = SweepSpec(
            n_values=(20,),
            t_values=(3.0,),
            lambda_values=(10.0,),
            costs=base_costs,
            simulation=SimulationConfig(num_cycles=400, seed=99),
        )
        row = run_sweep(spec)[0]
        assert row.error is None
        assert row.sim_cost > 0.0
        assert row.sim_halfwidth > 0.0
        assert row.delta == row.sim_cost - row.optimal_cost
        # The approx-A closed form and the exact simulation sit within a
        # few percent of each other at this scale.
        assert abs(row.delta) / row.optimal_cost < 0.1

    def test_failed_simulation_keeps_closed_form_numbers(self, base_costs):
        spec = SweepSpec(
            n_values=(100,),
            t_values=(7.0, math.inf),
            lambda_values=(14.0,),
            costs=base_costs,
            simulation=SimulationConfig(num_cycles=200, seed=5),
        )
        simulated, unbounded = run_sweep(spec)
        assert simulated.error is None and simulated.sim_cost is not None
        assert unbounded.p_success == 1.0
        assert unbounded.dispatch_time == 100 / 14.0
        assert unbounded.q_star_integer == 648
        assert unbounded.sim_cost is None and unbounded.sim_halfwidth is None
        assert unbounded.delta is None
        assert unbounded.error.startswith("simulation: ")
        text = emit_report([unbounded], "csv")
        assert text.splitlines()[1] == "100,inf,14,1,7.14286,648.074,648,75.5615,,,"

    def test_determinism(self, reference_spec):
        assert run_sweep(reference_spec) == run_sweep(reference_spec)

    def test_one_cost_model_pass_per_cell(self, base_costs):
        # Q*, the integer optimum and C(Q*) share one checked (N, td); the
        # floor/ceil comparison builds no CostBreakdown.
        spec = SweepSpec(n_values=(100,), t_values=(7.0,), lambda_values=(14.0,), costs=base_costs)
        with mock.patch.object(
            costmodel, "_n_and_td", wraps=costmodel._n_and_td
        ) as preamble, mock.patch.object(
            costmodel, "CostBreakdown", wraps=costmodel.CostBreakdown
        ) as breakdown:
            (row,) = run_sweep(spec)
        assert row.error is None and row.q_star_integer == 434
        assert preamble.call_count == 1
        assert breakdown.call_count == 0

    def test_spec_validation(self, base_costs):
        with pytest.raises(ParameterError):
            SweepSpec(n_values=(), t_values=(7.0,), lambda_values=(14.0,), costs=base_costs)
        with pytest.raises(ParameterError):
            SweepSpec(
                n_values=(100,), t_values=(7.0,), lambda_values=(14.0,),
                costs=base_costs, td_mode="typo",
            )
        bad = SweepSpec(
            n_values=(100.5,), t_values=(7.0,), lambda_values=(14.0,), costs=base_costs
        )
        with pytest.raises(ParameterError):
            run_sweep(bad)


class TestEmitReport:
    def test_csv_single_row_is_two_lines(self, base_costs):
        spec = SweepSpec(
            n_values=(100,), t_values=(7.0,), lambda_values=(14.0,), costs=base_costs
        )
        text = emit_report(run_sweep(spec), "csv")
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0] == HEADER
        assert text.endswith("\n")

    def test_csv_header_matches_exported_columns(self):
        assert ",".join(CSV_COLUMNS) == HEADER

    def test_csv_json_round_trip_at_six_digits(self, reference_rows):
        csv_lines = emit_report(reference_rows, "csv").splitlines()[1:]
        json_rows = json.loads(emit_report(reference_rows, "json"))
        assert len(csv_lines) == len(json_rows)
        for line, obj in zip(csv_lines, json_rows):
            assert list(obj) == list(CSV_COLUMNS)
            for name, cell in zip(CSV_COLUMNS, line.split(",")):
                if cell == "":
                    assert obj[name] is None
                else:
                    assert float(cell) == float(obj[name])

    def test_json_is_rfc_8259_with_unbounded_window_as_inf(self, base_costs):
        spec = SweepSpec(
            n_values=(100,), t_values=(7.0, math.inf), lambda_values=(14.0,), costs=base_costs
        )
        rows = run_sweep(spec)
        text = emit_report(rows, "json")

        def reject(constant):
            raise AssertionError(f"non-RFC 8259 constant {constant}")

        objects = json.loads(text, parse_constant=reject)
        assert [obj["t"] for obj in objects] == [7.0, "inf"]
        csv_lines = emit_report(rows, "csv").splitlines()[1:]
        for line, obj in zip(csv_lines, objects):
            for name, cell in zip(CSV_COLUMNS, line.split(",")):
                assert obj[name] is None if cell == "" else float(cell) == float(obj[name])

    def test_error_cells_render_empty_in_csv(self, base_costs):
        spec = SweepSpec(
            n_values=(500,), t_values=(0.5,), lambda_values=(0.5,), costs=base_costs
        )
        line = emit_report(run_sweep(spec), "csv").splitlines()[1]
        assert line == "500,0.5,0.5,,,,,,,,"

    def test_markdown_structure(self, reference_rows):
        text = emit_report(reference_rows, "markdown")
        assert "## arrival_rate = 14" in text
        for section in (
            "### success probability",
            "### expected dispatch time",
            "### optimal quantity (integer)",
            "### optimal cost rate",
        ):
            assert section in text
        assert "| 100 | " in text
        assert "434" in text
        assert "### simulation cross-check" not in text

    def test_markdown_marks_error_cells(self, base_costs):
        spec = SweepSpec(
            n_values=(100, 500), t_values=(0.5, 7.0), lambda_values=(0.5,), costs=base_costs
        )
        text = emit_report(run_sweep(spec), "markdown")
        assert "ERR" in text
        assert "### errors" in text
        assert "DegenerateAuctionError" in text

    def test_markdown_includes_simulation_table(self, base_costs):
        spec = SweepSpec(
            n_values=(20,), t_values=(3.0,), lambda_values=(10.0,),
            costs=base_costs, simulation=SimulationConfig(num_cycles=200, seed=5),
        )
        text = emit_report(run_sweep(spec), "markdown")
        assert "### simulation cross-check" in text
        assert "| n | t | sim_cost | sim_halfwidth | delta |" in text

    def test_byte_determinism(self, reference_rows):
        for fmt in ("csv", "json", "markdown"):
            assert emit_report(reference_rows, fmt) == emit_report(reference_rows, fmt)

    def test_rejects_bad_inputs(self, reference_rows):
        with pytest.raises(ParameterError):
            emit_report([], "csv")
        with pytest.raises(ParameterError):
            emit_report(reference_rows, "yaml")


def _json_by_the_encoder(rows) -> str:
    # The report as json.dumps renders it: the 6-significant-digit floats the
    # CSV prints, an unbounded window as "inf", missing values as null.
    def value(cell):
        if not isinstance(cell, float):
            return cell
        return "inf" if math.isinf(cell) else float(f"{cell:.6g}")

    columns = [field.name for field in dataclasses.fields(SweepRow)][:-1]
    payload = [
        {name: value(getattr(row, column)) for name, column in zip(CSV_COLUMNS, columns)}
        for row in rows
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


_INTS = st.integers(min_value=-(2**63), max_value=2**63)
_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_WINDOWS = st.one_of(_FLOATS, st.sampled_from([math.inf, -math.inf]))
_SIM_CELLS = st.one_of(st.none(), _FLOATS, st.just(math.nan))
_GOOD_ROWS = st.builds(
    SweepRow, n=_INTS, t=_WINDOWS, arrival_rate=_FLOATS, p_success=_FLOATS,
    dispatch_time=_FLOATS, q_star_real=_FLOATS, q_star_integer=_INTS, optimal_cost=_FLOATS,
    sim_cost=_SIM_CELLS, sim_halfwidth=_SIM_CELLS, delta=_SIM_CELLS,
    error=st.none() | st.just("simulation: NumericsError: x"),
)
_ERROR_ROWS = st.builds(
    SweepRow, n=_INTS, t=_WINDOWS, arrival_rate=_FLOATS, error=st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_GOOD_ROWS | _ERROR_ROWS, min_size=1, max_size=4))
@example(rows=[SweepRow(n=2**63, t=math.inf, arrival_rate=-0.0, q_star_integer=-(2**63))])
@example(rows=[SweepRow(n=1, t=5e-324, arrival_rate=1e300, sim_cost=math.nan)])
def test_json_report_is_the_encoders_bytes(rows):
    try:
        expected = _json_by_the_encoder(rows)
    except ValueError:
        # NaN has no JSON spelling.
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(rows, "json")
        return
    assert emit_report(rows, "json") == expected
