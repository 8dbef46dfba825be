import dataclasses
import json
import math
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupbuy_inventory import (
    CSV_COLUMNS,
    AuctionParams,
    NumericsError,
    ParameterError,
    Policy,
    SimulationConfig,
    SweepRow,
    SweepSpec,
    costmodel,
    emit_report,
    run_sweep,
    simulate,
    simulator,
    sweep,
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

    def test_sweep_with_no_cell_to_simulate_checks_no_budget(self, base_costs):
        # No cell can be planned, so no simulation runs: 2e7 cycles, over the
        # per-stream cycle bound, leave the cell with its own error.
        spec = SweepSpec(
            n_values=(100,), t_values=(math.inf,), lambda_values=(14.0,),
            costs=base_costs, simulation=SimulationConfig(num_cycles=20_000_000),
        )
        (row,) = run_sweep(spec)
        assert row.sim_cost is None and row.q_star_integer == 648
        assert row.error == "simulation: ConfigError: max_time: must be finite for simulation"

    def test_simulation_that_fails_in_its_run_keeps_closed_form_numbers(self, base_costs):
        # The plan passes; the run's dispatch gaps of about 1e305 overflow the
        # interval's standard error.
        spec = SweepSpec(
            n_values=(1,),
            t_values=(1e307,),
            lambda_values=(1e-305,),
            costs=base_costs,
            simulation=SimulationConfig(num_cycles=200),
        )
        (row,) = run_sweep(spec)
        (closed_form,) = run_sweep(dataclasses.replace(spec, simulation=None))
        assert row == dataclasses.replace(
            closed_form,
            error="simulation: NumericsError: simulated mean_dispatch_interval_se is not finite: nan",
        )

    def test_infinite_dispatch_time_is_an_error_cell(self, base_costs):
        # p_success is 1.3e-299, just above the degenerate bound: the dispatch time is inf.
        spec = SweepSpec(n_values=(100,), t_values=(1e10,), lambda_values=(3.9e-12,), costs=base_costs)
        assert run_sweep(spec) == [SweepRow(
            100, 1e10, 3.9e-12,
            error="NumericsError: dispatch time is not a positive finite number: inf",
        )]

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

    def test_cells_over_the_budget_are_refused_before_the_first(self, monkeypatch, base_costs):
        def no_cells(*args):
            raise AssertionError("a cell was evaluated")

        monkeypatch.setattr(sweep, "_evaluate_cell", no_cells)
        axis = range(1, 1001)
        spec = SweepSpec(n_values=axis, t_values=axis, lambda_values=axis, costs=base_costs)
        with pytest.raises(
            NumericsError,
            match=r"^sweep would evaluate 1000000000 cells, over the budget of 250000; "
            r"use fewer axis values$",
        ):
            run_sweep(spec)

    def test_cell_budget_counts_distinct_cells(self, monkeypatch, base_costs):
        monkeypatch.setattr(sweep, "_MAX_CELLS", 4)
        spec = SweepSpec(
            n_values=(100, 120, 100), t_values=(7.0, 6.0, 7), lambda_values=(14.0, 14),
            costs=base_costs,
        )
        assert len(run_sweep(spec)) == 4
        monkeypatch.setattr(sweep, "_MAX_CELLS", 3)
        with pytest.raises(NumericsError, match="4 cells, over the budget of 3"):
            run_sweep(spec)

    @pytest.mark.parametrize("budget,refused", [(20194, True), (20195, False)])
    def test_simulations_share_one_work_budget(self, monkeypatch, base_costs, budget, refused):
        # 10 cycles: 50 dispatches at p = 0.4333 (115.4 windows) at t = 7 and
        # 70 at p = 0.8826 (79.3 windows) at t = 8, plus 10,000 units per
        # simulated cell, 20,194.7 in all; each cell fits the budget alone.
        # The unbounded window's simulation cannot run and is not charged.
        monkeypatch.setattr(simulator, "_MAX_DRAWS", budget)
        spec = SweepSpec(
            n_values=(100,), t_values=(7.0, 8.0, math.inf), lambda_values=(14.0,),
            costs=base_costs, simulation=SimulationConfig(num_cycles=10, seed=5),
        )
        if not refused:
            rows = run_sweep(spec)
            assert [row.sim_cost is not None for row in rows] == [True, True, False]
        else:
            def no_simulations(*args):
                raise AssertionError("a cell was simulated")

            monkeypatch.setattr(simulator, "_run", no_simulations)
            with pytest.raises(
                NumericsError,
                match=r"^2 simulations of about 97\.4 units each, plus 10000 per simulation for "
                r"its fixed cost, 2\.02e\+04 in all, are over the budget of 2e\+04; use fewer "
                r"simulations, fewer cycles or a smaller quantity$",
            ):
                run_sweep(spec)

    @pytest.mark.parametrize("refused", [True, False])
    def test_sweep_builds_each_table_as_its_cell_runs(self, monkeypatch, base_costs, refused):
        # Six table-route cells (p from 2e-6 to 0.017): planning builds no
        # table, so a refused sweep builds none, and a run one builds each
        # cell's table in that cell's run.
        if refused:
            monkeypatch.setattr(simulator, "_MAX_DRAWS", 10**4)
        spec = SweepSpec(
            n_values=(120, 130), t_values=(6.0, 6.5, 7.0), lambda_values=(14.0,),
            costs=base_costs, simulation=SimulationConfig(num_cycles=20, seed=5),
        )
        simulator._excess_table.cache_clear()
        with mock.patch.object(simulator, "_excess_table", wraps=simulator._excess_table) as table:
            if refused:
                with pytest.raises(NumericsError, match=r"^6 simulations of about "):
                    run_sweep(spec)
            else:
                rows = run_sweep(spec)
        if refused:
            assert table.call_count == 0
        else:
            assert all(row.error is None and row.sim_cost is not None for row in rows)
            assert [call.args[0] for call in table.call_args_list] == [
                AuctionParams(row.n, row.t, row.arrival_rate) for row in rows
            ]

    def test_each_simulated_cell_is_planned_once(self, base_costs):
        spec = SweepSpec(
            n_values=(100,), t_values=(7.0, 8.0, math.inf), lambda_values=(14.0,),
            costs=base_costs, simulation=SimulationConfig(num_cycles=10, seed=5),
        )
        with mock.patch.object(simulator, "_plan", wraps=simulator._plan) as plan:
            rows = run_sweep(spec)
        # The unbounded window's plan raises; the other two cells run from theirs.
        assert plan.call_count == 3
        assert [(row.sim_cost, row.sim_halfwidth, row.delta, row.error) for row in rows] == [
            (32.22782224210053, 7.021542095254209, -5.877644504692178, None),
            (59.86054450448775, 6.974191955091459, -7.340356564845138, None),
            (None, None, None, "simulation: ConfigError: max_time: must be finite for simulation"),
        ]

    @pytest.mark.parametrize("budget,refused", [(115, True), (116, False)])
    def test_one_simulated_cell_pays_no_fixed_cost(self, monkeypatch, base_costs, budget, refused):
        # 10 cycles of 5 dispatches at p = 0.4333: 115.4 windows, charged as
        # a single stream, as simulate charges it.
        monkeypatch.setattr(simulator, "_MAX_DRAWS", budget)
        spec = SweepSpec(
            n_values=(100,), t_values=(7.0,), lambda_values=(14.0,),
            costs=base_costs, simulation=SimulationConfig(num_cycles=10, seed=5),
        )
        if refused:
            with pytest.raises(
                NumericsError,
                match=r"^simulation would draw about 115 units, over the budget of 1e\+02; "
                r"use fewer cycles or a smaller quantity$",
            ):
                run_sweep(spec)
        else:
            (row,) = run_sweep(spec)
            assert row.error is None and row.sim_cost is not None

    def test_simulated_cells_share_stream_zero(self, base_costs):
        # Common random numbers across the grid: each cell is simulate's stream 0.
        config = SimulationConfig(num_cycles=200, seed=11)
        spec = SweepSpec(
            n_values=(100,), t_values=(7.0,), lambda_values=(14.0, 14.5),
            costs=base_costs, simulation=config,
        )
        rows = run_sweep(spec)
        assert len(rows) == 2
        for row in rows:
            result = simulate(
                AuctionParams(row.n, row.t, row.arrival_rate), base_costs,
                Policy(row.q_star_real), config, stream=0,
            )
            assert (row.sim_cost, row.sim_halfwidth) == (
                result.long_run_cost, result.long_run_cost_halfwidth
            )

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

    @pytest.mark.parametrize("axis", ["t_values", "lambda_values"])
    def test_nan_axis_entry_is_refused_before_the_first_cell(self, monkeypatch, base_costs, axis):
        axes = {"n_values": (100,), "t_values": (7.0, 8.0), "lambda_values": (14.0,)}
        axes[axis] += (math.nan,)
        monkeypatch.setattr(sweep, "_evaluate_cell", mock.Mock(side_effect=AssertionError))
        with pytest.raises(ParameterError, match=f"^{axis} entry must not be NaN$"):
            run_sweep(SweepSpec(**axes, costs=base_costs))


    # Each entry meets its axis rule before the axis is deduplicated and sorted.
    def test_text_window_entry_is_refused(self, base_costs):
        # Sorted as text, "10" came before "7".
        spec = SweepSpec((100,), ("7", "10"), (14.0,), base_costs)
        with pytest.raises(ParameterError, match="^t_values entry must be a number, got '7'$"):
            run_sweep(spec)

    def test_batch_size_entry_that_cannot_sort_is_refused(self, base_costs):
        spec = SweepSpec((100, "x"), (7.0,), (14.0,), base_costs)
        with pytest.raises(ParameterError, match="^n_values entry must be an integer$"):
            run_sweep(spec)

    @pytest.mark.parametrize("n_values", [(1, 1.0), (1.0, 1)])
    def test_float_batch_size_is_refused_in_either_order(self, base_costs, n_values):
        spec = SweepSpec(n_values, (7.0,), (14.0,), base_costs)
        with pytest.raises(ParameterError, match="^n_values entry must be an integer$"):
            run_sweep(spec)


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

    def test_json_spells_minus_inf_as_the_csv_cell(self, base_costs):
        spec = SweepSpec((100,), (-math.inf, 7.0), (14.0,), base_costs)
        rows = run_sweep(spec)
        assert rows[0].error is not None
        assert emit_report(rows, "csv").splitlines()[1].startswith("100,-inf,14,")
        objects = json.loads(emit_report(rows, "json"))
        assert [obj["t"] for obj in objects] == ["-inf", 7.0]
        assert float(objects[0]["t"]) == -math.inf

    def test_markdown_is_the_reference_bytes(self, reference_rows, base_costs):
        # The reference grid plus one error cell, at a window no other row has.
        rows = reference_rows + run_sweep(SweepSpec((500,), (0.5,), (RATE,), base_costs))
        expected = (Path(__file__).parent / "reference_grid.md").read_text(encoding="utf-8")
        assert emit_report(rows, "markdown") == expected

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
    # CSV prints, an infinity as its signed string, missing values as null.
    def value(cell):
        if not isinstance(cell, float):
            return cell
        return ("inf" if cell > 0 else "-inf") if math.isinf(cell) else float(f"{cell:.6g}")

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
# Each boundary of the spelling rule: positional text, exponents 6 to 15 and
# from 16 on, -4 and -5, negative zero, and the subnormals at -308 and below.
@example(rows=[SweepRow(n=1, t=99999.95, arrival_rate=999999.5, p_success=123456789.0,
                        dispatch_time=1.5e15)])
@example(rows=[SweepRow(n=1, t=9.999995e15, arrival_rate=1e16, p_success=0.0001)])
@example(rows=[SweepRow(n=1, t=9.999995e-05, arrival_rate=-0.0, p_success=2.2250738585072014e-308,
                        dispatch_time=4.9e-324)])
def test_json_report_is_the_encoders_bytes(rows):
    try:
        expected = _json_by_the_encoder(rows)
    except ValueError:
        # NaN has no JSON spelling.
        with pytest.raises(ValueError, match="not JSON compliant"):
            emit_report(rows, "json")
        return
    assert emit_report(rows, "json") == expected


def _csv_by_the_oracle(rows) -> str:
    # The report as its rule states it: "" for None, str for an int and 6
    # significant digits for a float.
    def text(cell):
        if cell is None:
            return ""
        return f"{cell:.6g}" if isinstance(cell, float) else str(cell)

    columns = [field.name for field in dataclasses.fields(SweepRow)][:-1]
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(text(getattr(row, column)) for column in columns) for row in rows]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(_GOOD_ROWS | _ERROR_ROWS, min_size=1, max_size=4))
@example(rows=[SweepRow(n=2**63, t=-math.inf, arrival_rate=-0.0, q_star_integer=-(2**63))])
@example(rows=[SweepRow(n=1, t=5e-324, arrival_rate=1e300, sim_cost=math.nan)])
def test_csv_report_is_the_oracles_bytes(rows):
    assert emit_report(rows, "csv") == _csv_by_the_oracle(rows)
