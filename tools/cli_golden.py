"""Golden diff of the CLI between two source trees.

Usage: python3 tools/cli_golden.py OLD_SRC NEW_SRC

Each SRC is a checkout root (its ``src/`` is used) or a directory that
holds the ``groupbuy_inventory`` package. Every command below runs once
per tree as ``python -m groupbuy_inventory.cli`` on the base scenario
(n_required=100, max_time=7, arrival_rate=14, costs 40/4/0.02/10/300);
stdout, stderr and the exit code are compared byte for byte. The
commands cover reports (sweeps in all three formats), ``--help``,
rejected configs (exit 2), overflowing or underflowing results,
simulations over the work budget and sweeps over the cell or simulation
budget (exit 3), and failed sweep cells, whose reasons go to stderr
(exit 4). A command that runs longer than TIMEOUT_S seconds on either
tree is stopped and counts as a difference.
The script prints one line per command, the differing stdout and stderr
lines, and a summary; it exits 0 when every command is identical and 1
otherwise.
"""

from __future__ import annotations

import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BASE_CONFIG = """\
n_required = 100
max_time = 7
arrival_rate = 14
dispatch_cost = 40
transport_cost_per_unit = 4
holding_rate = 0.02
penalty_cost = 10
reorder_cost = 300
"""

TIMEOUT_S = 30
VALIDATE = ["validate", "--cycles", "2000", "--seed", "7"]
SIMULATE = ["simulate", "--quantity", "434", "--cycles", "2000", "--seed", "7", "--replications", "2"]
REFERENCE_GRID = ["sweep", "--n-values", "80,100,120", "--t-values", "6,7,8", "--lambda-values", "14"]
# 64 x 63 x 63 = 254,016 cells, just over the sweep's cell budget.
OVER_CELL_BUDGET = [
    "sweep",
    "--n-values", ",".join(str(50 + i) for i in range(64)),
    "--t-values", ",".join(str(round(5 + 0.05 * i, 2)) for i in range(63)),
    "--lambda-values", ",".join(str(round(12 + 0.05 * i, 2)) for i in range(63)),
    "--out", os.devnull,
]
COMMANDS = [
    VALIDATE,
    VALIDATE + ["--quantity", "434"],
    VALIDATE + ["--td-mode", "consistent", "--duration-sampler", "erlang"],
    ["validate", "--cycles", "300", "--seed", "3", "--n-required", "120", "--max-time", "6"],
    ["validate", "--cycles", "1", "--seed", "3"],
    SIMULATE,
    SIMULATE + ["--duration-sampler", "erlang", "--shortfall-rule", "carry_shortfall"],
    ["simulate", "--quantity", "50", "--cycles", "50", "--seed", "1"],
    ["simulate", "--quantity", "1", "--n-required", "1", "--max-time", "1",
     "--arrival-rate", "5", "--cycles", "1"],
    # Degenerate design: the success probability underflows to 0.
    ["simulate", "--quantity", "434", "--n-required", "500", "--max-time", "0.5",
     "--arrival-rate", "0.5", "--cycles", "1"],
    ["simulate", "--quantity", "433.86", "--shortfall-rule", "carry_shortfall",
     "--cycles", "2000", "--seed", "7"],
    # Q equals n_required: every dispatch drains the stock to exactly 0.
    ["simulate", "--quantity", "100", "--cycles", "500", "--seed", "7"],
    # Low-probability cell (120, 6): about 7.5k windows per dispatch.
    ["simulate", "--n-required", "120", "--max-time", "6", "--quantity", "9",
     "--cycles", "200", "--duration-sampler", "erlang"],
    ["optimize"],
    ["optimize", "--td-mode", "consistent", "--a-mode", "exact"],
    ["sweep", "--n-values", "20,40", "--t-values", "3,4", "--lambda-values", "10",
     "--include-simulation", "true", "--cycles", "200", "--format", "csv"],
    # Error cells (exit 4) next to a simulation table, in the other two formats.
    ["sweep", "--n-values", "20,500", "--t-values", "3,4", "--lambda-values", "10",
     "--include-simulation", "true", "--cycles", "200", "--format", "json"],
    ["sweep", "--n-values", "20,500", "--t-values", "3,4", "--lambda-values", "10",
     "--include-simulation", "true", "--cycles", "200", "--format", "markdown"],
    ["optimize", "--help"],
    # Rejected configs: exit 2 with one config error line on stderr.
    ["optimize", "--num-cycles", "0"],
    ["optimize", "--seed", "-1"],
    ["optimize", "--t-values=-1,7"],
    ["optimize", "--lambda-values", "inf"],
    ["optimize", "--format", "yaml"],
    ["optimize", "--include-simulation", "maybe"],
    ["optimize", "--n-values", "1,x"],
    ["optimize", "--seed", "1", "--seed", "2"],
    # Simulated statistics that overflow double precision: exit 3.
    ["simulate", "--quantity", "434", "--cycles", "3", "--replications", "2",
     "--penalty-cost", "1e300"],
    ["simulate", "--quantity", "434", "--holding-rate", "1e300", "--cycles", "5"],
    ["simulate", "--quantity", "434", "--cycles", "1", "--replications", "2",
     "--penalty-cost", "1e200"],
    # Closed-form results whose denominator underflows to 0.0: exit 3, or an
    # error cell (exit 4) in a sweep.
    ["optimize", "--arrival-rate", "1e300", "--holding-rate", "1e-30"],
    ["sweep", "--n-values", "100", "--t-values", "7", "--lambda-values", "14,1e300",
     "--holding-rate", "1e-30", "--format", "csv"],
    # Closed-form results that overflow to inf: exit 3.
    ["optimize", "--reorder-cost", "1e300", "--transport-cost-per-unit", "1e300"],
    ["optimize", "--reorder-cost", "1e300", "--arrival-rate", "1e10", "--holding-rate", "1e-5",
     "--max-time", "5e-9"],
    # Simulations over the window budget: exit 3 before drawing anything.
    ["simulate", "--quantity", "1e15", "--cycles", "1"],
    ["validate", "--n-required", "150", "--max-time", "6"],
    # Unbounded windows: simulate and validate each reject them, exit 2.
    ["simulate", "--quantity", "434", "--max-time", "inf"],
    ["validate", "--max-time", "inf"],
    # An unbounded window: the simulation fails (exit 4) but the cell keeps its
    # closed-form numbers; the JSON report spells the window "inf".
    ["sweep", "--n-values", "100", "--t-values", "inf", "--lambda-values", "14",
     "--include-simulation", "true", "--format", "csv"],
    ["sweep", "--n-values", "100", "--t-values", "inf", "--lambda-values", "14",
     "--include-simulation", "true", "--format", "json"],
    # n_required above 2**53 with rate * T = n_required: the kernel's mode.
    ["optimize", "--n-required", "10000000000000000", "--max-time", "714285714285714.2"],
    # 2**53 and 2**53 + 2 at rate * T = n_required: n + 1.0 rounds to n, then to n + 2.
    ["optimize", "--n-required", "9007199254740992", "--max-time", "9007199254740992",
     "--arrival-rate", "1"],
    ["optimize", "--n-required", "9007199254740994", "--max-time", "9007199254740994",
     "--arrival-rate", "1"],
    # 2e5 dispatches: pins the dispatch-interval estimate and its se.
    ["simulate", "--n-required", "1", "--max-time", "1000", "--arrival-rate", "1",
     "--quantity", "1000", "--cycles", "200", "--duration-sampler", "erlang"],
    # One window of 1e10 arrivals: interarrival_sum would draw 1e10 exponentials
    # and exits 3 at once; the default sampler draws one dispatch.
    ["simulate", "--n-required", "10000000000", "--max-time", "785714285.7142857",
     "--quantity", "10000000000", "--cycles", "1", "--duration-sampler", "interarrival_sum"],
    ["simulate", "--n-required", "10000000000", "--max-time", "785714285.7142857",
     "--quantity", "10000000000", "--cycles", "1"],
    # Failed cells without simulation: one stderr line names each reason.
    ["sweep", "--n-values", "20,500", "--t-values", "3,4", "--lambda-values", "10",
     "--format", "csv"],
    ["sweep", "--n-values", "20,500", "--t-values", "3,4", "--lambda-values", "10",
     "--format", "json"],
    # Closed-form sweeps shaped like the benchmark's: the reference grid.
    REFERENCE_GRID + ["--format", "json"],
    REFERENCE_GRID + ["--format", "markdown"],
    REFERENCE_GRID + ["--td-mode", "consistent", "--format", "json"],
    # The budget counts every replication: about 2.3e12 windows in all, exit 3 at once.
    ["simulate", "--quantity", "434", "--replications", "10000000", "--cycles", "20000"],
    # Help and usage errors name every command, whichever command's flags are built.
    ["--help"],
    ["simulate", "--help"],
    ["frobnicate"],
    # JSON spells values with decimal exponents 6 to 15 positionally (the window
    # 2.5e+06, the cost rates near 5e+14) and keeps 2.50489e+16 as it is.
    ["sweep", "--n-values", "100", "--t-values", "7,2500000", "--lambda-values", "14",
     "--reorder-cost", "1e30", "--format", "json"],
    # Over the cell budget: exit 3 before the first cell.
    OVER_CELL_BUDGET,
    # 11.5 windows per stream, but each of the 1e7 streams has a fixed cost: exit 3 at once.
    ["simulate", "--quantity", "434", "--cycles", "1", "--replications", "10000000"],
    # Per-window samplers at a window that is not an integer, where F * max_time
    # and F additions of max_time round differently.
    ["simulate", "--quantity", "150", "--max-time", "6.3", "--cycles", "300", "--seed", "7",
     "--duration-sampler", "erlang"],
    ["simulate", "--quantity", "150", "--max-time", "6.3", "--cycles", "300", "--seed", "7",
     "--duration-sampler", "interarrival_sum"],
    # Two simulated cells that each fit the work budget, 1.17e9 units together: exit 3
    # before the first simulation.
    ["sweep", "--n-values", "100", "--t-values", "7,8", "--lambda-values", "14",
     "--include-simulation", "true", "--cycles", "600000", "--duration-sampler", "interarrival_sum"],
    # Windows of 1e5 exponentials at p near 1/2, each summed in slices of 2**16.
    ["simulate", "--n-required", "100000", "--max-time", "7142.857142857143",
     "--quantity", "100000", "--cycles", "5", "--seed", "7", "--duration-sampler", "interarrival_sum"],
    # A short run at a fractional quantity: ceil(7 * 250.5 / 100) = 18 dispatches.
    ["simulate", "--quantity", "250.5", "--shortfall-rule", "carry_shortfall", "--cycles", "7",
     "--seed", "3"],
    # About 29k windows at p = 0.017, drawn at once by an unlogged per-window run.
    ["simulate", "--n-required", "120", "--max-time", "7", "--quantity", "94", "--cycles", "500",
     "--duration-sampler", "erlang"],
]


def package_root(path: str) -> Path:
    root = Path(path).resolve()
    if (root / "groupbuy_inventory").is_dir():
        return root
    if (root / "src" / "groupbuy_inventory").is_dir():
        return root / "src"
    sys.exit(f"no groupbuy_inventory package under {path}")


def run(src: Path, config: Path, argv: list[str]) -> tuple[int | str, str, str]:
    command, *flags = argv
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "groupbuy_inventory.cli", command, str(config), *flags],
            capture_output=True, text=True, env=env, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    return done.returncode, done.stdout, done.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    old_src, new_src = (package_root(path) for path in argv)
    identical = 0
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "base.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        for index, command in enumerate(COMMANDS, start=1):
            old_code, *old_streams = run(old_src, config, command)
            new_code, *new_streams = run(new_src, config, command)
            same = old_code == new_code != "timeout" and old_streams == new_streams
            identical += same
            label = " ".join(command)
            print(f"[{'same' if same else 'DIFF'}] {index:>2} {label} (exit {old_code} -> {new_code})")
            for name, old, new in zip(("stdout", "stderr"), old_streams, new_streams):
                diff = difflib.unified_diff(
                    old.splitlines(), new.splitlines(), f"old {name}", f"new {name}",
                    n=0, lineterm="",
                )
                for line in list(diff)[2:]:
                    print(f"       {name}: {line}")
    print(
        f"summary: {identical}/{len(COMMANDS)} commands byte-identical "
        "(stdout, stderr and exit code)"
    )
    return 0 if identical == len(COMMANDS) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
