import contextlib
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupbuy_inventory import (
    Policy,
    SimulationConfig,
    auction_statistics,
    long_run_average_cost,
    regularized_lower_gamma,
    simulate,
)
from groupbuy_inventory import cli, simulator, validation
from groupbuy_inventory.cli import RunConfig, load_run_config, main
from groupbuy_inventory.errors import ConfigError
from groupbuy_inventory.runconfig import _fmt_z

BASE_CONFIG = """\
# base scenario
n_required = 100
max_time = 7
arrival_rate = 14

dispatch_cost = 40
transport_cost_per_unit = 4
holding_rate = 0.02
penalty_cost = 10
reorder_cost = 300
"""


# The base scenario as flags, and the sweep axis each auction key becomes.
BASE_KEYS = {
    "n_required": 100, "max_time": 7, "arrival_rate": 14, "dispatch_cost": 40,
    "transport_cost_per_unit": 4, "holding_rate": 0.02, "penalty_cost": 10, "reorder_cost": 300,
}
SWEEP_AXES = {"n_required": "n_values", "max_time": "t_values", "arrival_rate": "lambda_values"}
LOG_UNIFORM = st.floats(min_value=-300.0, max_value=308.0).map(lambda exponent: 10.0**exponent)


def closed_form_argv(command, keys):
    """Every key as a flag; a sweep takes the auction keys as axes."""
    argv = [command]
    for key, value in keys.items():
        if command == "sweep":
            key = SWEEP_AXES.get(key, key)
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return argv


# The package's submodules, by file name.
SUBMODULES = sorted(
    path.stem for path in Path(cli.__file__).parent.glob("*.py") if path.stem != "__init__"
)


# The modules of the simulate and validate reports, which optimize and sweep never load.
COMMAND_MODULES = ["groupbuy_inventory.simulation_report", "groupbuy_inventory.validation"]


def cli_script(command, *flags, code=0):
    """What `python -m groupbuy_inventory.cli COMMAND CONFIG FLAGS` runs, CONFIG
    being the script's first argument; the command must exit with code."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['groupbuy-inventory', {command!r}, sys.argv[1], *{list(flags)!r}]\n"
        "try:\n"
        "    runpy.run_module('groupbuy_inventory.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        f"    assert exc.code == {code}, exc.code"
    )


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(BASE_CONFIG, encoding="utf-8")
    return str(path)


class TestOptimize:
    def test_base_report_values(self, config_file, capsys):
        assert main(["optimize", config_file]) == 0
        out = capsys.readouterr().out
        for fragment in ("0.4333", "6.7829", "15.9376", "433.8597", "434"):
            assert fragment in out
        assert "eoq limit" in out
        assert "td_mode=paper" in out

    def test_td_mode_flag_changes_report(self, config_file, capsys):
        assert main(["optimize", config_file, "--td-mode", "consistent"]) == 0
        out = capsys.readouterr().out
        assert "optimal policy (td_mode=consistent)" in out
        # Smaller dispatch time pushes the optimum above the td_mode="paper" 434.
        assert "437" in out

    def test_unbounded_window(self, config_file, capsys):
        assert main(["optimize", config_file, "--max-time", "inf"]) == 0
        out = capsys.readouterr().out
        assert "648.0741" in out

    def test_zero_holding_rate_is_config_error(self, config_file, capsys):
        assert main(["optimize", config_file, "--holding-rate", "0"]) == 2
        err = capsys.readouterr().err
        assert "holding_rate" in err

    @pytest.mark.parametrize("command", ["optimize", "sweep", "validate"])
    @pytest.mark.parametrize("key", ["holding_rate", "reorder_cost"])
    def test_unoptimizable_costs_are_config_errors(self, config_file, capsys, command, key):
        assert main([command, config_file, f"--{key.replace('_', '-')}", "0"]) == 2
        assert capsys.readouterr().err == (
            f"config error: optimizing the quantity requires {key} > 0\n"
        )

    def test_missing_cost_key(self, tmp_path, capsys):
        partial = tmp_path / "partial.cfg"
        partial.write_text(
            "n_required = 100\nmax_time = 7\narrival_rate = 14\n", encoding="utf-8"
        )
        assert main(["optimize", str(partial)]) == 2
        assert "dispatch_cost" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(BASE_CONFIG + "warp_factor = 9\n", encoding="utf-8")
        assert main(["optimize", str(bad)]) == 2
        assert "warp_factor" in capsys.readouterr().err

    def test_non_numeric_value(self, config_file, capsys):
        assert main(["optimize", config_file, "--arrival-rate", "fast"]) == 2
        assert "arrival_rate" in capsys.readouterr().err

    def test_degenerate_design_is_numeric_error(self, config_file, capsys):
        code = main([
            "optimize", config_file,
            "--n-required", "500", "--max-time", "0.5", "--arrival-rate", "0.5",
        ])
        assert code == 3
        assert "numeric domain error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--arrival-rate", "1e308"], "is not finite: inf"),
            (["--penalty-cost", "1e308", "--max-time", "6.5"], "is not finite: inf"),
            # holding_rate * td underflows to 0.0 in the denominator of Q*.
            (["--arrival-rate", "1e300", "--holding-rate", "1e-30"],
             "holding_rate * dispatch time underflowed to zero"),
            # Q* is an integer-valued float, so no cost rate is compared.
            (["--reorder-cost", "1e300", "--transport-cost-per-unit", "1e300"],
             "expected transport is not finite: inf"),
            (["--reorder-cost", "1e300", "--arrival-rate", "1e10", "--holding-rate", "1e-5",
              "--max-time", "5e-9"], "eoq limit is not finite: inf"),
        ],
        ids=[
            "infinite-optimum", "infinite-cost-rate", "underflowing-denominator",
            "infinite-cycle-cost", "infinite-eoq-limit",
        ],
    )
    def test_overflowing_result_is_numeric_error(self, config_file, capsys, flags, message):
        assert main(["optimize", config_file, *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_infinite_dispatch_time_is_numeric_error(self, config_file, capsys):
        # p_success is 1.3e-299, just above the degenerate bound: the dispatch time is inf.
        assert main(["optimize", config_file, "--max-time", "1e10", "--arrival-rate", "3.9e-12"]) == 3
        assert capsys.readouterr() == (
            "", "numeric domain error: dispatch time is not a positive finite number: inf\n"
        )

    def test_missing_config_file(self, capsys):
        assert main(["optimize", "/nonexistent/path.cfg"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_out_writes_file(self, config_file, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["optimize", config_file, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "433.8597" in target.read_text(encoding="utf-8")

    def test_unwritable_out_is_config_error(self, config_file, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "report.txt"
        assert main(["optimize", config_file, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error: cannot write report" in captured.err
        assert str(target) in captured.err


class TestSimulate:
    def test_runs_and_reports(self, config_file, capsys):
        code = main([
            "simulate", config_file, "--quantity", "434",
            "--cycles", "2000", "--seed", "42",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "long-run cost rate" in out
        assert "cost rate td=consistent  a_mode=exact" in out
        assert "counts: auctions=" in out

    def test_deterministic_output(self, config_file, capsys):
        argv = ["simulate", config_file, "--quantity", "434", "--cycles", "1000", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_output(self, config_file, capsys):
        base = ["simulate", config_file, "--quantity", "434", "--cycles", "1000"]
        main(base + ["--seed", "1"])
        first = capsys.readouterr().out
        main(base + ["--seed", "2"])
        second = capsys.readouterr().out
        assert first != second

    def test_flag_overrides_file_value(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(BASE_CONFIG + "quantity = 434\nnum_cycles = 500\n", encoding="utf-8")
        assert main(["simulate", str(cfg), "--quantity", "300"]) == 0
        out = capsys.readouterr().out
        assert "quantity=300" in out

    def test_requires_quantity(self, config_file, capsys):
        assert main(["simulate", config_file]) == 2
        assert "quantity" in capsys.readouterr().err

    def test_requires_finite_window(self, config_file, capsys):
        code = main(["simulate", config_file, "--quantity", "434", "--max-time", "inf"])
        assert code == 2
        assert "max_time" in capsys.readouterr().err

    def test_rejects_zero_cycles(self, config_file, capsys):
        code = main(["simulate", config_file, "--quantity", "434", "--cycles", "0"])
        assert code == 2
        assert "num_cycles" in capsys.readouterr().err

    def test_comparison_z_matches_library(self, config_file, capsys, base_auction, base_costs):
        assert main(["simulate", config_file, "--quantity", "434", "--cycles", "2000",
                     "--seed", "7"]) == 0
        printed = {}
        for line in capsys.readouterr().out.splitlines():
            label, _, z = line.partition("z=")
            printed[" ".join(label.split()[:-1])] = z
        policy = Policy(434.0)
        result = simulate(base_auction, base_costs, policy, SimulationConfig(2000, seed=7))
        stats = auction_statistics(base_auction)
        z_p = (result.p_hat - stats.p_success) / result.p_hat_se
        analytic = long_run_average_cost(stats, base_costs, policy, 100, "consistent", "exact")
        z_cost = (result.long_run_cost - analytic) / result.long_run_cost_se
        assert printed["p_success"] == f"{z_p:+.2f}"
        assert printed["cost rate td=consistent a_mode=exact"] == f"{z_cost:+.2f}"

    def test_replications(self, config_file, capsys):
        code = main([
            "simulate", config_file, "--quantity", "434",
            "--cycles", "400", "--replications", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stream 0" in out and "stream 2" in out
        assert "replication summary" in out


class TestSweep:
    def test_reference_grid_csv(self, config_file, capsys):
        code = main([
            "sweep", config_file,
            "--n-values", "80,100,120", "--t-values", "6,7,8",
            "--lambda-values", "14", "--format", "csv",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("n,t,lambda,")
        assert any(line.startswith("100,7,14,0.433311,") for line in lines)

    def test_out_file_matches_stdout(self, config_file, tmp_path, capsys):
        argv = [
            "sweep", config_file, "--n-values", "100", "--t-values", "7",
            "--lambda-values", "14", "--format", "json",
        ]
        assert main(argv) == 0
        stdout_text = capsys.readouterr().out
        target = tmp_path / "rows.json"
        assert main(argv + ["--out", str(target)]) == 0
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_partial_failure_exit_code(self, config_file, capsys):
        code = main([
            "sweep", config_file,
            "--n-values", "100,500", "--t-values", "0.5,7", "--lambda-values", "0.5,14",
            "--format", "csv",
        ])
        assert code == 4
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 9  # header + 8 rows, failures included
        # One stderr line names each failed cell and its reason.
        reason = "DegenerateAuctionError: success probability underflowed (0.0) for AuctionParams"
        assert captured.err.splitlines() == [
            f"sweep: n=500 t={t} lambda={rate}: {reason}(n_required=500, max_time={t:.1f}, "
            f"arrival_rate={rate:.1f}); design is degenerate"
            for t, rate in ((0.5, 0.5), (0.5, 14), (7, 0.5))
        ]

    def test_overflowing_cell_is_error_cell(self, config_file, capsys):
        code = main([
            "sweep", config_file, "--n-values", "100", "--t-values", "7",
            "--lambda-values", "14,1e308", "--format", "csv",
        ])
        assert code == 4
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("100,7,14,0.433311,")
        assert rows[2] == "100,7,1e+308" + "," * 8

    def test_underflowing_cell_is_error_cell(self, config_file, capsys):
        code = main([
            "sweep", config_file, "--n-values", "100", "--t-values", "7",
            "--lambda-values", "14,1e300", "--holding-rate", "1e-30", "--format", "csv",
        ])
        assert code == 4
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        assert rows[1].startswith("100,7,14,0.433311,")
        assert rows[2] == "100,7,1e+300" + "," * 8

    def test_include_simulation_adds_columns(self, config_file, capsys):
        code = main([
            "sweep", config_file, "--n-values", "20", "--t-values", "3",
            "--lambda-values", "10", "--format", "csv",
            "--include-simulation", "true", "--cycles", "200", "--seed", "3",
        ])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[1]
        cells = row.split(",")
        assert cells[-3] != "" and cells[-2] != "" and cells[-1] != ""

    def test_bad_format(self, config_file, capsys):
        code = main([
            "sweep", config_file, "--n-values", "100", "--t-values", "7",
            "--lambda-values", "14", "--format", "yaml",
        ])
        assert code == 2
        assert "format" in capsys.readouterr().err

    def test_requires_axes(self, config_file, capsys):
        assert main(["sweep", config_file]) == 2
        assert "n_values" in capsys.readouterr().err


class TestValidate:
    def test_base_scenario_passes(self, config_file, capsys):
        assert main(["validate", config_file, "--cycles", "20000"]) == 0
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 0
        assert out.count("[PASS]") >= 14
        assert out.count("[INFO]") >= 2
        assert "summary:" in out

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_stable_across_seeds(self, config_file, capsys, seed):
        assert main(["validate", config_file, "--seed", str(seed)]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_reports_cost_grid_deltas_informally(self, config_file, capsys):
        main(["validate", config_file])
        out = capsys.readouterr().out
        assert "reference cost-rate grid deltas" in out
        assert "n=100 t=7: +0.6" in out


    def test_roundoff_readout_prints_the_verdict_only(self, config_file, capsys):
        assert main(["validate", config_file, "--cycles", "2000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] closed-form vs direct cost at Q*: all 9 cells within 1e-09\n" in out

    def test_configured_quantity_is_simulated_under_reset_to_q(
        self, config_file, capsys, base_auction, base_costs
    ):
        assert main(["validate", config_file, "--quantity", "401", "--shortfall-rule",
                     "carry_shortfall", "--cycles", "2000", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert " quantity=401 (config) " in out and " shortfall_rule=reset_to_q\n" in out
        policy = Policy(401.0)
        result = simulate(base_auction, base_costs, policy, SimulationConfig(2000, 7, "reset_to_q"))
        comparison = simulator._analytic_comparison(
            result, auction_statistics(base_auction), base_costs, policy, 100
        )
        printed = re.findall(r"^\[PASS\] simulated .*: z=(\S+) \(\|z\| <= 4\)$", out, re.M)
        assert printed == [
            _fmt_z(comparison[key][1])
            for key in (("p_success", None, None), ("dispatch time", "consistent", None),
                        ("cost rate", "consistent", "exact"))
        ]

    def test_single_cycle_run_fails_the_cost_rate_check(self, config_file, capsys):
        # One cycle gives the cost-rate estimator no standard error. (Seed 3's
        # dispatch stream has no failed window in its five dispatches, which
        # fails the other two z checks too.)
        assert main(["validate", config_file, "--cycles", "1", "--seed", "3",
                     "--duration-sampler", "erlang"]) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines() if line.startswith("[FAIL]")] == [
            "[FAIL] simulated cost rate vs consistent/exact analytic: z=n/a (|z| <= 4)"
        ]
        assert "summary: 13 passed, 1 failed, 3 informational\n" in out

    def test_reference_grid_mismatch_fails(self, config_file, capsys, monkeypatch):
        grid = dict(validation._REFERENCE_GRID)
        p, td, _, cost = grid[100, 7.0]
        grid[100, 7.0] = (p, td, 433, cost)
        monkeypatch.setattr(validation, "_REFERENCE_GRID", grid)
        assert main(["validate", config_file, "--cycles", "2000", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL] grid integer quantity mismatches: n=100 t=7: 434 vs 433\n" in out
        # The base scenario is the grid's (100, 7) cell and reads its references.
        assert "[FAIL] base integer quantity 434 vs 433\n" in out

    def test_work_counts(self, config_file, capsys, monkeypatch):
        calls = Counter()
        for name in ("_optimum", "best_integer_quantity", "optimal_quantity"):
            def counting(*args, _name=name, _original=getattr(validation, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(validation, name, counting)
        assert main(["validate", config_file, "--cycles", "2000", "--seed", "7"]) == 0
        # One cost-model pass per grid cell, the base scenario's cell included; one
        # integer optimum for the simulated policy and one Q* for the long window.
        assert calls == {"_optimum": 9, "best_integer_quantity": 1, "optimal_quantity": 1}


class TestConfigParsing:
    def test_comments_and_blank_lines(self, tmp_path, capsys):
        cfg = tmp_path / "commented.cfg"
        cfg.write_text(
            "# full line comment\n\nn_required = 100  # trailing comment\n"
            "max_time = 7\narrival_rate = 14\ndispatch_cost = 40\n"
            "transport_cost_per_unit = 4\nholding_rate = 0.02\n"
            "penalty_cost = 10\nreorder_cost = 300\n",
            encoding="utf-8",
        )
        assert main(["optimize", str(cfg)]) == 0
        assert "433.8597" in capsys.readouterr().out

    def test_flags_alone_suffice(self, capsys):
        code = main([
            "optimize",
            "--n-required", "100", "--max-time", "7", "--arrival-rate", "14",
            "--dispatch-cost", "40", "--transport-cost-per-unit", "4",
            "--holding-rate", "0.02", "--penalty-cost", "10", "--reorder-cost", "300",
        ])
        assert code == 0
        assert "433.8597" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag,value,key",
        [
            ("--num-cycles", "0", "num_cycles"),
            ("--seed", "-1", "seed"),
            ("--seed", str(2**64), "seed"),
            ("--quantity", "-1", "quantity"),
            ("--n-required", "0", "n_required"),
            ("--arrival-rate", "inf", "arrival_rate"),
            ("--replications", "0", "replications"),
            ("--reorder-cost", "0", "reorder_cost"),
            ("--penalty-cost", "-1", "penalty_cost"),
            ("--transport-cost-per-unit", "inf", "transport_cost_per_unit"),
            ("--n-values", "0,100", "n_values"),
            ("--t-values", "-1", "t_values"),
            ("--lambda-values", "0", "lambda_values"),
            ("--lambda-values", "inf", "lambda_values"),
        ],
    )
    def test_out_of_range_value_is_config_error(self, config_file, capsys, flag, value, key):
        assert main(["optimize", config_file, flag, value]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,key",
        [
            (["--num-cycles", "0", "--cycles", "300"], "num_cycles"),
            (["--cycles", "300", "--num-cycles", "0"], "num_cycles"),
            (["--seed", "1", "--seed", "2"], "seed"),
        ],
    )
    def test_flag_given_twice_is_config_error(self, config_file, capsys, flags, key):
        assert main(["simulate", config_file, "--quantity", "434", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {key} given twice")

    @pytest.mark.parametrize(
        "argv",
        [
            ["optimize", "--bogus", "1"],
            ["optimize", "--seed"],
            ["forecast"],
        ],
        ids=["unknown-flag", "missing-value", "unknown-command"],
    )
    def test_usage_error_is_config_error(self, config_file, capsys, argv):
        command, *flags = argv
        assert main([command, config_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "usage:" not in captured.err

    @pytest.mark.parametrize("source", ["flag", "config-key"])
    def test_deleted_sampler_is_config_error(self, tmp_path, capsys, source):
        cfg = tmp_path / "sampler.cfg"
        if source == "flag":
            cfg.write_text(BASE_CONFIG, encoding="utf-8")
            flags = ["--duration-sampler", "interarrival_sum"]
        else:
            cfg.write_text(BASE_CONFIG + "duration_sampler = interarrival_sum\n", encoding="utf-8")
            flags = []
        assert main(["simulate", str(cfg), "--quantity", "434", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "config error: duration_sampler: must be one of ('erlang', 'dispatch'), "
            "got 'interarrival_sum'\n"
        )

    def test_repeated_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "repeated.cfg"
        cfg.write_text(BASE_CONFIG + "reorder_cost = 1\n", encoding="utf-8")
        assert main(["optimize", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'reorder_cost'" in err
        assert "line 11" in err and "line 10" in err

    def test_unreadable_config_file(self, config_file, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("pathlib.Path.read_text", refuse)
        assert main(["optimize", config_file]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    def test_undecodable_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"n_required = 100\n\xff\xfe\n")
        assert main(["optimize", str(cfg)]) == 2
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--seed", "1.5", "seed: expected an integer, got '1.5'"),
            ("--holding-rate", "nan", "holding_rate: must not be NaN"),
            ("--include-simulation", "maybe", "include_simulation: expected a boolean, got 'maybe'"),
        ],
    )
    def test_unreadable_value_is_config_error(self, config_file, capsys, flag, value, message):
        assert main(["optimize", config_file, flag, value]) == 2
        assert capsys.readouterr() == ("", f"config error: {message}\n")

    def test_off_reads_as_false(self, config_file):
        cfg = load_run_config(config_file, {"include_simulation": "off"})
        assert cfg.include_simulation is False

    def test_empty_value(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(BASE_CONFIG + "seed =\n", encoding="utf-8")
        assert main(["optimize", str(cfg)]) == 2
        line = len(BASE_CONFIG.splitlines()) + 1
        assert capsys.readouterr().err == f"config error: line {line}: empty value for key 'seed'\n"

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("n_required 100\n", encoding="utf-8")
        assert main(["optimize", str(cfg)]) == 2
        assert "key = value" in capsys.readouterr().err

    def test_byte_order_mark_is_read_past(self, config_file, tmp_path, capsys):
        marked = tmp_path / "marked.cfg"
        marked.write_text("\ufeff" + BASE_CONFIG, encoding="utf-8")
        assert main(["optimize", config_file]) == 0
        plain = capsys.readouterr()
        assert main(["optimize", str(marked)]) == 0
        assert capsys.readouterr() == plain

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_integer_past_the_digit_limit_is_named_not_echoed(self, tmp_path, capsys, source):
        limit = sys.get_int_max_str_digits()
        digits = "9" * (limit + 1)
        cfg = tmp_path / "long.cfg"
        cfg.write_text(BASE_CONFIG + (f"seed = {digits}\n" if source == "file" else ""),
                       encoding="utf-8")
        flags = ["--seed", digits] if source == "flag" else []
        assert main(["optimize", str(cfg), *flags]) == 2
        assert capsys.readouterr().err == (
            f"config error: seed: the value has {limit + 1} digits, more than "
            f"sys.get_int_max_str_digits() allows ({limit})\n"
        )

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "command,key,value",
        [("optimize", "max_time", "1e400"), ("optimize", "arrival_rate", "-1e400"),
         ("sweep", "t_values", "7, 1e400")],
    )
    def test_literal_past_the_float_range_is_config_error(
        self, tmp_path, capsys, source, command, key, value
    ):
        # float() reads it as inf, which max_time and t_values take as the unbounded window.
        lines = [line for line in BASE_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        if source == "file":
            lines.append(f"{key} = {value}")
            flags = []
        else:
            flags = [f"--{key.replace('_', '-')}", value]
        if command == "sweep":
            flags += ["--n-values", "100", "--lambda-values", "14"]
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main([command, str(cfg), *flags]) == 2
        assert capsys.readouterr() == (
            "", f"config error: {key}: must be within the float range, got {value.split()[-1]!r}\n"
        )


# One valid value per config key, unlike both its default and the base
# scenario; a key the schema gains without a value here fails the test below.
SCHEMA_SAMPLES = {
    "n_required": "80",
    "num_cycles": "500",
    "replications": "2",
    "seed": "7",
    "max_time": "6.5",
    "arrival_rate": "12",
    "dispatch_cost": "41",
    "transport_cost_per_unit": "3.5",
    "holding_rate": "0.03",
    "penalty_cost": "9",
    "reorder_cost": "310",
    "quantity": "434",
    "td_mode": "consistent",
    "a_mode": "exact",
    "shortfall_rule": "carry_shortfall",
    "duration_sampler": "erlang",
    "format": "csv",
    "n_values": "80, 100",
    "t_values": "6,7.5",
    "lambda_values": "12,14.5",
    "include_simulation": "yes",
    "path": "report.txt",
}
SCHEMA_KEYS = [field.name for field in dataclasses.fields(RunConfig) if "parse" in field.metadata]


class TestSchema:
    def test_every_key_has_a_sample(self):
        assert SCHEMA_KEYS == list(SCHEMA_SAMPLES)

    @pytest.mark.parametrize("key", SCHEMA_KEYS)
    def test_file_key_equals_its_flag(self, tmp_path, monkeypatch, capsys, key):
        seen = []

        def record(cfg):
            seen.append(cfg)
            return "", 0

        monkeypatch.chdir(tmp_path)
        monkeypatch.setitem(cli._COMMANDS, "optimize", record)
        value = SCHEMA_SAMPLES[key]
        base = dict(line.split(" = ") for line in BASE_CONFIG.splitlines()[1:] if line)
        flag = "--out" if key == "path" else f"--{key.replace('_', '-')}"
        (tmp_path / "base.cfg").write_text(BASE_CONFIG, encoding="utf-8")
        (tmp_path / "keyed.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items()), encoding="utf-8"
        )
        assert main(["optimize", "base.cfg"]) == 0
        assert main(["optimize", "keyed.cfg"]) == 0
        assert main(["optimize", "base.cfg", flag, value]) == 0
        assert capsys.readouterr().err == ""
        unset, from_file, from_flag = seen
        assert from_file == from_flag
        assert getattr(from_file, key) != getattr(unset, key)


# Pieces of command lines: the commands and one bogus command; every flag and
# other spellings (an unknown key, an abbreviation, key=value, help, the end of
# options); values, some of which start with '-' or name a command.
LINE_COMMANDS = [*cli._COMMANDS, "frobnicate"]
LINE_FLAGS = [
    *(f"--{key.replace('_', '-')}" for key in SCHEMA_KEYS if key != "path"),
    "--cycles", "--out", "--path", "--cyc", "--seed=3", "-h", "--",
]
LINE_VALUES = ["5", "base.cfg", "-1", "", "a=b", "optimize"]
LINE_PIECES = st.sampled_from(LINE_COMMANDS + LINE_FLAGS + LINE_VALUES)
# The key each flag of LINE_FLAGS names, its one abbreviation included.
LINE_KEYS = {**cli._FLAGS, "--cyc": "num_cycles"}
HELP = (None, None, {})
INVALID_CHOICE = (
    "argument command: invalid choice: {!r} (choose from 'optimize', 'simulate', 'sweep', "
    "'validate')"
)


def read_line(argv):
    """What _read_command_line makes of argv: its triple or its ConfigError's message."""
    try:
        return cli._read_command_line(argv)
    except ConfigError as exc:
        return str(exc)


class TestCommandLine:
    # A command, perhaps a config, flags each followed by a value or any piece,
    # perhaps one more piece.
    @settings(max_examples=1000, deadline=None)
    @given(
        argv=st.tuples(
            st.sampled_from(LINE_COMMANDS),
            st.lists(st.sampled_from(LINE_VALUES), max_size=1),
            st.lists(
                st.tuples(st.sampled_from(LINE_FLAGS), st.sampled_from(LINE_VALUES) | LINE_PIECES),
                max_size=4,
            ),
            st.lists(LINE_PIECES, max_size=1),
        ).map(lambda parts: [parts[0], *parts[1], *(p for pair in parts[2] for p in pair),
                             *parts[3]])
    )
    @example(argv=["simulate", "base.cfg", "--quantity", "434", "--cycles", "5", "--out", "a=b"])
    @example(argv=["optimize", "", "--seed", "", "--n-values", "optimize"])
    @example(argv=["validate", "--seed=3", "--cyc", "-h", "--", "-1"])
    @example(argv=["validate"])
    def test_every_line_is_read_or_is_a_config_error(self, argv):
        line = read_line(argv)
        if line == HELP:
            assert "-h" in argv
        elif not isinstance(line, str):
            command, config, overrides = line
            assert command == argv[0]
            assert config is None or config in argv[1:]
            assert list(overrides) == [key for key in cli._PARSERS if key in overrides]
            spelled = [*zip(argv, argv[1:]), *(token.split("=", 1) for token in argv if "=" in token)]
            for key, value in overrides.items():
                assert any(LINE_KEYS.get(flag) == key and given == value for flag, given in spelled)

    @pytest.mark.parametrize(
        "argv,outcome",
        [
            ([], "the following arguments are required: command"),
            (["optimize", "-h"], HELP),
            (["optimize", "--help"], HELP),
            (["optimize", "--he"], HELP),
            (["--help", "frobnicate"], HELP),
            (["optimize", "--seed", "3", "--help"], HELP),
            (["optimize", "--help=3"], HELP),
            (["frobnicate"], INVALID_CHOICE.format("frobnicate")),
            (["optimize", "base.cfg", "base.cfg"], "unrecognized arguments: base.cfg"),
            (["optimize", "--seed", "3", "base.cfg"], ("optimize", "base.cfg", {"seed": "3"})),
            (["optimize", "--seed"], "argument --seed: expected one argument"),
            (["optimize", "--seed", "--n-values", "5"], "argument --seed: expected one argument"),
            (["optimize", "--seed", "-1"], ("optimize", None, {"seed": "-1"})),
            (["optimize", "--t-values", "-1,7"], ("optimize", None, {"t_values": "-1,7"})),
            (["optimize", "--seed=3"], ("optimize", None, {"seed": "3"})),
            (["optimize", "--cyc", "3"], ("optimize", None, {"num_cycles": "3"})),
            (["optimize", "--n", "5"],
             "ambiguous option: --n could match --n-required, --num-cycles, --n-values"),
            (["optimize", "--path", "report.txt"], "unrecognized arguments: --path"),
            (["optimize", "--bogus", "1"], "unrecognized arguments: --bogus"),
            (["optimize", "--bogus=1", "-x"], "unrecognized arguments: --bogus=1"),
            (["optimize", "--seed", "1", "--seed", "2"], "seed given twice (--seed, then --seed)"),
            (["optimize", "--cycles", "1", "--num-cycles", "2"],
             "num_cycles given twice (--cycles, then --num-cycles)"),
            (["optimize", "-1"], ("optimize", "-1", {})),
            (["optimize", "--", "base.cfg"], ("optimize", "base.cfg", {})),
            (["optimize", "--", "--seed", "3"], "unrecognized arguments: 3"),
            (["--seed", "3", "optimize"], ("optimize", None, {"seed": "3"})),
            (["--seed", "3"], "the following arguments are required: command"),
            (["-1"], INVALID_CHOICE.format("-1")),
            (["simulate", "--quant", "434", "--out", "a", "--cycles", "5", "b.cfg"],
             ("simulate", "b.cfg", {"num_cycles": "5", "quantity": "434", "path": "a"})),
        ],
        ids=[
            "empty", "-h", "--help", "help-prefix", "help-first", "help-after-flags",
            "help-with-value", "unknown-command", "two-configs", "config-after-a-flag",
            "missing-value", "flag-for-a-value", "negative-value", "dash-value", "key=value",
            "abbreviation", "ambiguous-abbreviation", "path-flag", "unknown-flag",
            "unknown-flags", "repeated-flag", "alias-and-flag", "negative-config",
            "end-of-options", "flags-after-the-end", "flag-first", "flag-alone",
            "negative-command", "parsers-order",
        ],
    )
    def test_outcome(self, argv, outcome):
        assert read_line(argv) == outcome

    def test_main_returns_0_after_help(self, capsys):
        assert main(["--help"]) == 0
        assert main(["sweep", "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out == 2 * cli._help()
        assert captured.err == ""

    def test_help_bytes_do_not_follow_the_terminal(self):
        def run(columns, *argv):
            return subprocess.run(
                [sys.executable, "-m", "groupbuy_inventory.cli", *argv],
                capture_output=True, text=True, timeout=60, env={**os.environ, "COLUMNS": columns},
            )

        for argv in (["--help"], ["simulate", "--help"]):
            narrow, wide = run("40", *argv), run("200", *argv)
            assert narrow.returncode == wide.returncode == 0
            assert narrow.stdout == wide.stdout
        lines = run("80", "--help").stdout.splitlines()
        for command in cli._COMMANDS:
            assert any(command in line and cli._NOTES[command] in line for line in lines)
        flags = run("80", "simulate", "--help").stdout
        assert all(flag in flags for flag in cli._FLAGS)


class TestSubprocessEntry:
    def test_module_invocation_is_byte_deterministic(self, config_file):
        argv = [
            sys.executable, "-m", "groupbuy_inventory.cli",
            "simulate", config_file, "--quantity", "434",
            "--cycles", "500", "--seed", "11",
        ]
        first = subprocess.run(argv, capture_output=True)
        second = subprocess.run(argv, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout

    def test_degenerate_simulate_is_numeric_error(self, config_file):
        # Without the up-front check this run never ends; the timeout turns
        # a hang into a failure.
        argv = [
            sys.executable, "-m", "groupbuy_inventory.cli",
            "simulate", config_file, "--quantity", "434", "--n-required", "500",
            "--max-time", "0.5", "--arrival-rate", "0.5", "--cycles", "1",
        ]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "degenerate" in result.stderr

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    @pytest.mark.parametrize(
        "design", [[], ["--n-required", "120", "--max-time", "6"]], ids=["windows", "table"]
    )
    def test_tiny_quantity_is_numeric_error(self, config_file, command, design):
        # ceil(5e-324 / n) is one dispatch per cycle, where the float ratio
        # underflows to 0, which drew nothing, forever (a timeout here), or no
        # batch at all (a traceback). The approx analytic cycle Q / n is 0.
        argv = [
            sys.executable, "-m", "groupbuy_inventory.cli", command, config_file,
            "--quantity", "5e-324", "--cycles", "3", *design,
        ]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=30)
        assert (result.returncode, result.stdout, result.stderr) == (
            3, "", "numeric domain error: cycle length underflowed to zero\n"
        )

    def test_overflowing_clock_simulate_is_numeric_error(self, config_file):
        # p is about 0.5, but the clock overflows after about 20 windows.
        argv = [
            sys.executable, "-m", "groupbuy_inventory.cli",
            "simulate", config_file, "--quantity", "434", "--max-time", "1e307",
            "--arrival-rate", "1e-305", "--cycles", "50",
        ]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "clock overflowed" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            # About 1e13 dispatches in one cycle.
            ["simulate", "--quantity", "1e15", "--cycles", "1"],
            # The best integer Q = 9 at p = 5.7e-11: about 3.5e14 windows, each
            # drawn under erlang (the default sampler draws 2e4 dispatches).
            ["validate", "--n-required", "150", "--max-time", "6", "--duration-sampler", "erlang"],
            # About 2.3e5 windows per stream, 2.3e12 over all the streams.
            ["simulate", "--quantity", "434", "--replications", "10000000", "--cycles", "20000"],
            # 11.5 windows per stream, 1.15e8 in all, but 1e7 streams' fixed cost.
            ["simulate", "--quantity", "434", "--replications", "10000000", "--cycles", "1"],
        ],
        ids=["simulate", "validate", "replications", "replications-fixed-cost"],
    )
    def test_work_over_budget_is_numeric_error(self, config_file, argv):
        command, *flags = argv
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", command, config_file, *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "bidding windows" in result.stderr

    def test_sweep_over_the_cell_budget_is_numeric_error(self, config_file):
        # 1e6 cells: about 40 s and 1 GB if they were evaluated.
        axis = ",".join(str(value) for value in range(1, 101))
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", "sweep", config_file,
             "--n-values", axis, "--t-values", axis, "--lambda-values", axis],
            capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numeric domain error: sweep would evaluate 1000000 cells, over the budget of "
            "250000; use fewer axis values\n"
        )

    def test_simulated_sweep_over_the_work_budget_is_numeric_error(self, config_file):
        # 8.9e8 and 5.0e8 windows: each cell fits the budget and the cycle
        # bound alone, not the two together.
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", "sweep", config_file,
             "--n-values", "100", "--t-values", "5.5,5.8", "--lambda-values", "14",
             "--include-simulation", "true", "--cycles", "6000000",
             "--duration-sampler", "erlang"],
            capture_output=True, text=True, timeout=20,
        )
        assert result.returncode == 3
        assert result.stdout == ""
        assert result.stderr == (
            "numeric domain error: 2 simulations of about 6.96e+08 units each, plus 10000 per "
            "simulation for its fixed cost, 1.39e+09 in all, are over the budget of 1e+09; "
            "use fewer simulations, fewer cycles or a smaller quantity\n"
        )

    BIG = str(10**400)
    N_BOUND = "n_required must be <= 1.7976931348623157e+308\n"

    @pytest.mark.parametrize(
        "argv,code,stderr",
        [
            (["optimize", "--n-required", BIG], 3, f"numeric domain error: {N_BOUND}"),
            (["validate", "--n-required", BIG], 3, f"numeric domain error: {N_BOUND}"),
            (["simulate", "--quantity", "434", "--cycles", BIG], 3,
             "numeric domain error: simulation would draw about inf bidding windows "
             "(cycles * ceil(quantity / n_required) / p_success), over the budget of 1e+09; "
             "use fewer cycles or a smaller quantity\n"),
            (["simulate", "--quantity", "434", "--cycles", "10", "--replications", BIG], 3,
             f"numeric domain error: {BIG} simulations of about 115 bidding windows "
             "(cycles * ceil(quantity / n_required) / p_success) each, plus 10000 per "
             "simulation for its fixed cost, inf in all, are over the budget of 1e+09; "
             "use fewer simulations, fewer cycles or a smaller quantity\n"),
            (["sweep", "--n-values", BIG, "--t-values", "7", "--lambda-values", "14"], 4,
             f"sweep: n={BIG} t=7 lambda=14: ParameterError: {N_BOUND}"),
        ],
        ids=["optimize", "validate", "cycles", "replications", "sweep"],
    )
    def test_integers_past_the_float_range_exit_with_one_line(
        self, config_file, argv, code, stderr
    ):
        command, *flags = argv
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", command, config_file, *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert "Traceback" not in result.stderr
        assert (result.returncode, result.stderr) == (code, stderr)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs the /dev/full device")
    @pytest.mark.parametrize("argv", [["optimize"], ["--help"]], ids=["report", "help"])
    def test_report_that_cannot_reach_stdout_is_config_error(self, config_file, argv):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "groupbuy_inventory.cli", *argv, config_file],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert result.returncode == 2
        assert result.stderr.startswith("config error: cannot write report to stdout: ")
        assert result.stderr.count("\n") == 1

    # (120, 6) at Q = 9: one table-route dispatch per cycle, about 0.5 us each.
    LOW_P = ["--n-required", "120", "--max-time", "6", "--quantity", "9"]
    CYCLE_BOUND = (
        "numeric domain error: simulation would keep {} cycles, over the bound of 1e+07 per "
        "stream (about 48 bytes each); use fewer cycles\n"
    )

    @pytest.mark.parametrize(
        "argv,code,stderr",
        [
            # 1e9 dispatches fit the work budget, but not about 48 GB of cycles.
            (["simulate", *LOW_P, "--cycles", "1000000000"], 3, CYCLE_BOUND.format(1000000000)),
            (["simulate", *LOW_P, "--cycles", "20000000", "--replications", "2"], 3,
             CYCLE_BOUND.format(20000000)),
            (["sweep", "--n-values", "120", "--t-values", "6", "--lambda-values", "14",
              "--include-simulation", "true", "--cycles", "20000000"], 3,
             CYCLE_BOUND.format(20000000)),
            (["simulate", *LOW_P, "--cycles", "2000000"], 0, ""),
        ],
        ids=["simulate", "replications", "sweep", "within-the-bound"],
    )
    def test_cycles_over_the_memory_bound_are_numeric_error(self, config_file, argv, code, stderr):
        command, *flags = argv
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", command, config_file, *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (code, stderr)

    # n_required = 1e10 at p = 1: one window of 1e10 arrivals.
    FOUND = ["simulate", "--n-required", "10000000000", "--max-time", "785714285.7142857",
             "--quantity", "10000000000", "--cycles", "1"]

    @pytest.mark.parametrize(
        "argv,code,stderr",
        [
            (FOUND, 0, ""),
            # p = 5.7e-11: 2e4 dispatches under the default sampler, not 3.5e14 windows.
            (["validate", "--n-required", "150", "--max-time", "6"], 0, ""),
        ],
        ids=["dispatch", "validate-low-p"],
    )
    def test_budget_counts_the_sampler_draws(self, config_file, argv, code, stderr):
        command, *flags = argv
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", command, config_file, *flags],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stderr) == (code, stderr)

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--cycles", "3", "--replications", "2", "--penalty-cost", "1e300"],
             "simulated mean_cycle_cost_se is not finite: inf"),
            (["--holding-rate", "1e300", "--cycles", "5"],
             "simulated mean_cycle_cost_se is not finite: inf"),
            # One cycle per stream has no standard error; the spread across
            # the two streams overflows instead.
            (["--cycles", "1", "--replications", "2", "--penalty-cost", "1e200"],
             "replication summary of the long-run cost is not finite"),
        ],
        ids=["replications", "holding-rate", "replication-summary"],
    )
    def test_overflowing_estimate_simulate_is_numeric_error(self, config_file, flags, message):
        argv = [
            sys.executable, "-m", "groupbuy_inventory.cli",
            "simulate", config_file, "--quantity", "434", *flags,
        ]
        result = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        assert result.returncode == 3
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert "RuntimeWarning" not in result.stderr
        assert result.stderr == f"numeric domain error: {message}\n"

    @pytest.mark.parametrize(
        "script,unloaded",
        [
            ("import groupbuy_inventory",
             ["numpy", *(f"groupbuy_inventory.{m}" for m in SUBMODULES)]),
            (cli_script("optimize"),
             ["argparse", "numpy", "groupbuy_inventory.simulator", "groupbuy_inventory.sweep",
              *COMMAND_MODULES]),
            (cli_script("sweep", "--n-values", "100", "--t-values", "7", "--lambda-values", "14"),
             ["argparse", "numpy", "groupbuy_inventory.simulator", *COMMAND_MODULES]),
            (cli_script("simulate", "--quantity", "434", "--cycles", "200"),
             ["argparse", "groupbuy_inventory.sweep", "groupbuy_inventory.validation"]),
            (cli_script("validate", "--cycles", "200"),
             ["argparse", "groupbuy_inventory.sweep", "groupbuy_inventory.simulation_report"]),
            (cli_script("--help"), ["argparse", "groupbuy_inventory.sweep", *COMMAND_MODULES]),
            (cli_script("optimize", "--quantity=434"), ["argparse"]),
            (cli_script("optimize", "--quant", "434"), ["argparse"]),
            (cli_script("optimize", "--seed", "-1", code=2), ["argparse"]),
            (cli_script("optimize", "--bogus", "1", code=2), ["argparse"]),
            # Simulations refused before their first draw never load numpy.
            (cli_script("simulate", code=2), ["numpy"]),
            (cli_script("simulate", "--n-required", "10000000000000000000", "--arrival-rate", "1",
                        "--max-time", "1e19", "--quantity", "1e19", "--cycles", "2", code=3),
             ["numpy"]),
            (cli_script("simulate", "--quantity", "1e15", "--cycles", "1", code=3), ["numpy"]),
        ],
        ids=["import", "cli-optimize", "cli-sweep", "cli-simulate", "cli-validate", "cli-help",
             "cli-key=value", "cli-abbreviation", "cli-negative-value", "cli-unknown-flag",
             "simulate-no-quantity", "simulate-past-2**53", "simulate-over-budget"],
    )
    def test_entry_points_load_only_what_they_run(self, config_file, script, unloaded):
        check = (
            f"\nimport sys\nloaded = sorted(set({unloaded!r}) & set(sys.modules))\n"
            "assert not loaded, f'{loaded} loaded'"
        )
        result = subprocess.run(
            [sys.executable, "-c", script + check, config_file], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("optimize", []),
            ("sweep", ["--n-values", "100", "--t-values", "7", "--lambda-values", "14"]),
            ("simulate", ["--quantity", "434", "--cycles", "200"]),
            ("validate", ["--cycles", "200"]),
        ],
    )
    def test_run_as_main_compiles_cli_once(self, config_file, command, flags):
        # Run as __main__, cli is not groupbuy_inventory.cli: a module that
        # imported the latter would compile and run cli.py a second time.
        script = cli_script(command, *flags) + (
            "\nassert 'groupbuy_inventory.cli' not in sys.modules, 'cli imported as a module'"
        )
        result = subprocess.run(
            [sys.executable, "-c", script, config_file], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_json_report_does_not_import_json(self, config_file):
        script = cli_script(
            "sweep", "--n-values", "100", "--t-values", "7", "--lambda-values", "14",
            "--format", "json",
        ) + "\nassert 'json' not in sys.modules, 'json was imported'"
        result = subprocess.run(
            [sys.executable, "-c", script, config_file], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert '"q_star_integer": 434' in result.stdout


class TestClosedFormProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        command=st.sampled_from(["optimize", "sweep"]),
        keys=st.fixed_dictionaries({
            "n_required": st.integers(min_value=1, max_value=2**63 - 1),
            **{key: LOG_UNIFORM for key in BASE_KEYS if key != "n_required"},
        }),
    )
    @example(command="optimize", keys={**BASE_KEYS, "arrival_rate": 1e300, "holding_rate": 1e-30})
    @example(
        command="sweep", keys={**BASE_KEYS, "arrival_rate": "14,1e300", "holding_rate": 1e-30}
    )
    @example(
        command="optimize",
        keys={**BASE_KEYS, "reorder_cost": 1e300, "transport_cost_per_unit": 1e300},
    )
    @example(
        command="optimize",
        keys={
            **BASE_KEYS, "reorder_cost": 1e300, "arrival_rate": 1e10, "holding_rate": 1e-5,
            "max_time": 5e-9,
        },
    )
    # n_required above 2**53 with rate * T = n_required: s + 1 == s in double
    # precision, where the continued fraction once started from b = 0.
    @example(
        command="optimize",
        keys={**BASE_KEYS, "n_required": 10**16, "max_time": 714285714285714.2},
    )
    def test_exits_0_to_4_and_prints_only_finite_numbers(self, command, keys):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(closed_form_argv(command, keys))
        assert 0 <= code <= 4, err.getvalue()
        if code == 0:
            text = out.getvalue().replace("eoq limit (window -> inf)", "")
            assert not re.search(r"\b(inf|infinity|nan)\b", text, re.IGNORECASE), text


def window_for(n_required, p, arrival_rate=14.0):
    """The window at which the success probability P(n_required, rate * T) is p."""
    lo, hi = 0.0, n_required + 40.0 * n_required**0.5 + 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if regularized_lower_gamma(float(n_required), mid) < p else (lo, mid)
    return hi / arrival_rate


class TestSimulationProperty:
    @settings(max_examples=6, deadline=None)
    @given(
        n_required=st.integers(min_value=1, max_value=10**6),
        p=st.floats(min_value=-12.0, max_value=0.0).map(lambda exponent: 10.0**exponent),
        quantity=st.floats(min_value=0.0, max_value=3.0).map(lambda exponent: 10.0**exponent),
        cycles=st.integers(min_value=1, max_value=500),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    # Past the exact stock levels: an int64 OverflowError, a silent level
    # wrap and two gamma-window hangs before the 2**53 bound.
    @example(n_required=10**19, p=0.5, quantity=1e19, cycles=2, seed=0)
    @example(n_required=2**40, p=0.5, quantity=2.0**64, cycles=2, seed=0)
    @example(n_required=2**110, p=0.5, quantity=2.0**110, cycles=2, seed=0)
    @example(n_required=10**300, p=0.5, quantity=1e300, cycles=2, seed=0)
    def test_simulate_and_validate_end_in_time(self, n_required, p, quantity, cycles, seed):
        # A run that hangs fails by the timeout; any answer is an exit code 0-4.
        keys = {**BASE_KEYS, "n_required": n_required, "max_time": repr(window_for(n_required, p))}
        for command in ("simulate", "validate"):
            argv = closed_form_argv(command, keys) + [
                "--quantity", repr(quantity), "--cycles", str(cycles), "--seed", str(seed),
            ]
            result = subprocess.run(
                [sys.executable, "-m", "groupbuy_inventory.cli", *argv],
                capture_output=True, text=True, timeout=60,
            )
            assert 0 <= result.returncode <= 4, result.stderr
            assert "Traceback" not in result.stderr, result.stderr

    @settings(max_examples=4, deadline=None)
    @given(
        n_required=st.floats(min_value=0.0, max_value=53.0).map(lambda exponent: round(2.0**exponent)),
        p=st.floats(min_value=-6.0, max_value=math.log10(0.97)).map(lambda exponent: 10.0**exponent),
        ratio=st.floats(min_value=0.5, max_value=10.0),
        cycles=st.integers(min_value=1, max_value=10),
    )
    def test_every_simulating_command_ends_in_time(self, n_required, p, ratio, cycles):
        # simulate under both shortfall rules, validate and a simulated sweep, on one design.
        window = repr(window_for(n_required, p))
        keys = {**BASE_KEYS, "n_required": n_required, "max_time": window}
        run = ["--quantity", repr(ratio * n_required), "--cycles", str(cycles)]
        argvs = [
            closed_form_argv("simulate", keys) + run,
            closed_form_argv("simulate", keys) + run + ["--shortfall-rule", "carry_shortfall"],
            closed_form_argv("validate", keys) + run,
            closed_form_argv("sweep", keys) + ["--include-simulation", "true", "--cycles", str(cycles)],
        ]
        for argv in argvs:
            result = subprocess.run(
                [sys.executable, "-m", "groupbuy_inventory.cli", *argv],
                capture_output=True, text=True, timeout=60,
            )
            assert 0 <= result.returncode <= 4, result.stderr
            assert "Traceback" not in result.stderr, result.stderr

    @settings(max_examples=4, deadline=None)
    @given(
        n_required=st.integers(min_value=2**53 + 1, max_value=10**300),
        ratio=st.floats(min_value=1.0, max_value=4.0),
        rule=st.sampled_from(["reset_to_q", "carry_shortfall"]),
        cycles=st.integers(min_value=1, max_value=20000),
    )
    # The four faults past 2**53, at lambda = 1 and T = n (p about 0.5): an
    # int64 OverflowError, silent level wraps from n * D and from Q, and a hang.
    @example(n_required=10**19, ratio=1.0, rule="reset_to_q", cycles=2)
    @example(n_required=2**50, ratio=1.5, rule="carry_shortfall", cycles=20000)
    @example(n_required=2**40, ratio=2.0**24, rule="reset_to_q", cycles=2)
    @example(n_required=2**110, ratio=1.0, rule="reset_to_q", cycles=2)
    @example(n_required=10**300, ratio=1.0, rule="reset_to_q", cycles=2)
    def test_simulate_past_the_exact_stock_levels_exits_3_at_once(
        self, n_required, ratio, rule, cycles
    ):
        keys = {**BASE_KEYS, "n_required": n_required, "max_time": repr(float(n_required)),
                "arrival_rate": 1}
        argv = closed_form_argv("simulate", keys) + [
            "--quantity", repr(ratio * n_required), "--shortfall-rule", rule,
            "--cycles", str(cycles),
        ]
        result = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", *argv],
            capture_output=True, text=True, timeout=1,
        )
        assert result.returncode == 3, result.stderr
        assert result.stderr.startswith(
            "numeric domain error: simulated stock levels are exact up to 2**53 units"
        ), result.stderr
