"""Identity check of the CLI, simulate and sweep reports between two source trees.

Usage: python3 tools/identity.py OLD_SRC NEW_SRC

Each SRC is a checkout root (its ``src/`` is used) or a directory that
holds the ``groupbuy_inventory`` package. One child process per tree,
both started at once, runs three suites and prints one JSON line per case:

- cli: each command of COMMANDS, run as ``python -m groupbuy_inventory.cli``
  on the base scenario; its stdout, stderr and exit code. A command that
  runs longer than TIMEOUT_S seconds is stopped and counts as a difference.
- simulate: the designs of the benchmark's simulate workload
  (``perfbench/workloads.py`` next to this script) for each seed in SEEDS,
  under each duration sampler of SAMPLERS and every shortfall rule, without
  and with an event log; each SimulationResult's repr (or the error raised)
  and the SHA-256 of the event log's UTF-8 bytes.
- report: the grids of the benchmark's closed-form workload for each seed,
  then RANDOM_GRIDS seeded random grids (error cells, unbounded and
  negative windows, tiny success probabilities, extreme and zero costs,
  NaN entries, a simulation on every SIMULATED_EVERY-th grid); each grid's
  row reprs (or the error raised) and the SHA-256 of its CSV, JSON and
  markdown reports (or the error each raised). A grid with a NaN or -inf
  axis entry has NAN_TAG in its label.

The script prints each case that differs, as a unified diff where the
text has several lines, and one summary line per suite; it exits 0 when
every case is identical and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 3)
# Fixed, not the package's DURATION_SAMPLERS, so that both trees build the same cases.
SAMPLERS = ("erlang", "dispatch")
RANDOM_GRIDS = 3000
SIMULATED_EVERY = 25
NAN_TAG = "[NaN/-inf]"
TIMEOUT_S = 30
# Each suite and what its cases compare.
SUITES = {
    "cli": "stdout, stderr and exit code",
    "simulate": "SimulationResult repr and event-log SHA-256",
    "report": "row reprs and SHA-256 of csv, json and markdown",
}

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

BIG = str(10**400)
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


def past_exact_levels(command, n, quantity, *flags, max_time=None):
    """command at n_required n and arrival rate 1, with max_time n (p about 1/2) by default."""
    window = float(n) if max_time is None else max_time
    return [command, "--n-required", str(n), "--max-time", repr(window), "--arrival-rate", "1",
            "--quantity", repr(quantity), *flags]


COMMANDS = [
    VALIDATE,
    VALIDATE + ["--quantity", "434"],
    # A configured quantity is simulated under reset_to_q, whatever the config's rule.
    VALIDATE + ["--quantity", "401", "--shortfall-rule", "carry_shortfall"],
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
    # A simulation over the window budget: exit 3 before drawing anything.
    ["simulate", "--quantity", "1e15", "--cycles", "1"],
    # p = 5.7e-11 at the best integer Q = 9: within the budget, as the default
    # sampler draws 2e4 dispatches, not 3.5e14 windows; exit 0.
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
    # No cell can be simulated, so the 2e7 cycles, past the per-stream cycle
    # bound, refuse nothing: the cell keeps its error (exit 4).
    ["sweep", "--n-values", "100", "--t-values", "inf", "--lambda-values", "14",
     "--include-simulation", "true", "--cycles", "20000000"],
    # n_required above 2**53 with rate * T = n_required: the kernel's mode.
    ["optimize", "--n-required", "10000000000000000", "--max-time", "714285714285714.2"],
    # 2**53 and 2**53 + 2 at rate * T = n_required: n + 1.0 rounds to n, then to n + 2.
    ["optimize", "--n-required", "9007199254740992", "--max-time", "9007199254740992",
     "--arrival-rate", "1"],
    ["optimize", "--n-required", "9007199254740994", "--max-time", "9007199254740994",
     "--arrival-rate", "1"],
    # An odd n past 2**53, which a float does not hold: it takes float(n)'s values.
    ["optimize", "--n-required", "9007199254740993", "--max-time", "9007199254740993",
     "--arrival-rate", "1"],
    # 2e5 dispatches: pins the dispatch-interval estimate and its se.
    ["simulate", "--n-required", "1", "--max-time", "1000", "--arrival-rate", "1",
     "--quantity", "1000", "--cycles", "200", "--duration-sampler", "erlang"],
    # 2e5 one-dispatch cycles at p = 1.28e-4: erlang would draw 1.57e9 windows
    # and exits 3 at once; the default sampler draws their 2e5 dispatches.
    ["simulate", "--n-required", "120", "--max-time", "6", "--quantity", "9",
     "--cycles", "200000", "--duration-sampler", "erlang"],
    # One window of 1e10 arrivals: the default sampler draws one dispatch.
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
    # Help and usage errors name every command.
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
    # Both samplers at a window that is not an integer, where F * max_time
    # and F additions of max_time round differently.
    ["simulate", "--quantity", "150", "--max-time", "6.3", "--cycles", "300", "--seed", "7",
     "--duration-sampler", "erlang"],
    ["simulate", "--quantity", "150", "--max-time", "6.3", "--cycles", "300", "--seed", "7"],
    # Two simulated cells of 8.9e8 and 5.0e8 windows, each within the work budget and
    # the cycle bound, 1.39e9 units together: exit 3 before the first simulation.
    ["sweep", "--n-values", "100", "--t-values", "5.5,5.8", "--lambda-values", "14",
     "--include-simulation", "true", "--cycles", "6000000", "--duration-sampler", "erlang"],
    # Windows of 1e5 arrivals at p near 1/2, each one gamma variate.
    ["simulate", "--n-required", "100000", "--max-time", "7142.857142857143",
     "--quantity", "100000", "--cycles", "5", "--seed", "7", "--duration-sampler", "erlang"],
    # interarrival_sum is not a sampler: exit 2 with one config error line.
    ["simulate", "--quantity", "434", "--cycles", "300", "--duration-sampler", "interarrival_sum"],
    # A short run at a fractional quantity: ceil(7 * 250.5 / 100) = 18 dispatches.
    ["simulate", "--quantity", "250.5", "--shortfall-rule", "carry_shortfall", "--cycles", "7",
     "--seed", "3"],
    # About 29k windows at p = 0.017, drawn at once by an unlogged per-window run.
    ["simulate", "--n-required", "120", "--max-time", "7", "--quantity", "94", "--cycles", "500",
     "--duration-sampler", "erlang"],
    # Spellings past COMMAND CONFIG --FLAG VALUE: key=value, abbreviated flags and a
    # value that starts with '-' (as "--seed -1" above).
    ["simulate", "--quantity=434", "--cycles", "300", "--seed", "7"],
    ["simulate", "--quant", "434", "--cyc", "300", "--seed", "7"],
    ["simulate", "--quantity", "-434", "--cycles", "300"],
    # The grammar's edges: an ambiguous prefix, a missing value, an unknown flag, a
    # value that starts with '-' and is not a number, a second CONFIG, help given a
    # value, and a key given by its prefix and then by its alias.
    ["optimize", "--n", "5"],
    ["optimize", "--seed"],
    ["optimize", "--bogus", "1"],
    ["optimize", "--t-values", "-1,7"],
    ["optimize", "other.cfg"],
    ["optimize", "--help=3"],
    ["simulate", "--cyc", "300", "--cycles", "300", "--quantity", "434"],
    # One simulated cell of 1.04e9 units: over the budget as a single stream, which
    # pays no fixed cost: exit 3 before the simulation.
    ["sweep", "--n-values", "100", "--t-values", "5.5", "--lambda-values", "14",
     "--include-simulation", "true", "--cycles", "7000000", "--duration-sampler", "erlang"],
    # 1e9 one-dispatch cycles fit the work budget, but not the 1e7-cycle bound: exit 3
    # at once, naming the bytes each cycle keeps.
    ["simulate", "--n-required", "120", "--max-time", "6", "--quantity", "9",
     "--cycles", "1000000000"],
    # Integers past the float range: exit 3, or an error cell (exit 4) in a sweep.
    ["optimize", "--n-required", BIG],
    ["validate", "--n-required", BIG],
    ["simulate", "--quantity", "434", "--cycles", BIG],
    ["simulate", "--quantity", "434", "--cycles", "10", "--replications", BIG],
    ["sweep", "--n-values", BIG, "--t-values", "7", "--lambda-values", "14"],
    # An integer past the int-to-str digit limit: exit 2, naming the key and not the digits.
    ["optimize", "--seed", "9" * (sys.get_int_max_str_digits() + 1)],
    # A float literal past the float range is not the unbounded window: exit 2.
    ["optimize", "--max-time", "1e400"],
    # ceil(5e-324 / n) is one dispatch per cycle (the float ratio is 0): the runs
    # end, and the approx analytic cycle length underflows: exit 3.
    ["simulate", "--quantity", "5e-324", "--cycles", "3"],
    ["simulate", "--quantity", "5e-324", "--cycles", "3", "--n-required", "120",
     "--max-time", "6"],
    ["validate", "--quantity", "5e-324", "--cycles", "3"],
    # Past 2**53 units the stock levels are inexact: each simulation exits 3 before any
    # draw (an OverflowError traceback from n = 2**63, silent level wraps below it, and
    # gamma-window hangs at n = 2**110 and 10**300), and a simulated sweep exits 4 with
    # the refusal in its error cell.
    *(past_exact_levels(command, 10**19, 1e19, "--cycles", "2", "--shortfall-rule", rule)
      for command in ("simulate", "validate") for rule in ("reset_to_q", "carry_shortfall")),
    *(past_exact_levels(command, n, float(n), "--cycles", "2")
      for n in (2**110, 10**300) for command in ("simulate", "validate")),
    ["sweep", "--n-values", str(10**30), "--t-values", "1e30", "--lambda-values", "1",
     "--include-simulation", "true", "--cycles", "2", "--format", "markdown"],
    past_exact_levels("simulate", 2**62, 3.0 * 2**62, "--shortfall-rule", "carry_shortfall",
                      "--cycles", "2", max_time=2.0**62 + 3e9),
    past_exact_levels("simulate", 2**50, 1.5 * 2**50, "--shortfall-rule", "carry_shortfall",
                      "--cycles", "20000"),
    past_exact_levels("simulate", 2**40, 2.0**64, "--cycles", "2"),
]


def package_root(path: str) -> Path:
    root = Path(path).resolve()
    if (root / "groupbuy_inventory").is_dir():
        return root
    if (root / "src" / "groupbuy_inventory").is_dir():
        return root / "src"
    sys.exit(f"no groupbuy_inventory package under {path}")


def cli_cases(config: str):
    """Each command's exit code, stdout and stderr, or the timeout that stopped it."""
    for command, *flags in COMMANDS:
        label = " ".join([command, *flags])
        try:
            done = subprocess.run(
                [sys.executable, "-m", "groupbuy_inventory.cli", command, config, *flags],
                capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            yield label, {"timeout": f"stopped after {TIMEOUT_S} s"}
            continue
        yield label, {"exit": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


class _Digest:
    """A text sink that keeps only the SHA-256 of the UTF-8 bytes written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return len(text)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def simulate_cases(gb):
    from workloads import COSTS, Simulate

    for seed in SEEDS:
        # The workload's own log paths go unused: each run logs to a _Digest.
        for op in Simulate(seed, Path(os.devnull), Path(gb.__file__)).ops:
            design = f"seed={seed} stream={op.stream} {op.auction} Q={op.quantity}"
            for sampler, rule, logged in itertools.product(
                SAMPLERS, gb.SHORTFALL_RULES, (False, True)
            ):
                config = dataclasses.replace(op.config, shortfall_rule=rule, duration_sampler=sampler)
                log = _Digest() if logged else None
                try:
                    result = repr(gb.simulate(
                        op.auction, COSTS, gb.Policy(float(op.quantity)), config,
                        stream=op.stream, event_log=log,
                    ))
                except gb.GroupBuyError as exc:
                    result = _error(exc)
                label = f"{design} {sampler} {rule} {'logged' if log else 'unlogged'}"
                yield label, {"result": result, "event log SHA-256": log and log.sha.hexdigest()}


def _window(rng: random.Random, n: int, rate: float) -> float:
    roll = rng.random()
    if roll < 0.04:
        return math.inf
    if roll < 0.06:
        return -math.inf
    if roll < 0.07:
        return math.nan
    if roll < 0.10:
        return rng.choice([0.0, -1.0, 5e-324])
    if roll < 0.25:
        # Far below the mean arrival time of n bidders: p from about 1e-5 to underflow.
        return n / rate * rng.uniform(0.05, 0.6)
    return (n + rng.gauss(0.0, 2.0) * math.sqrt(n)) / rate


def _rate(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.02:
        return math.nan
    if roll < 0.05:
        return rng.choice([0.0, -3.0, math.inf])
    return 10.0 ** rng.uniform(-1.0, 2.5)


def _cost(rng: random.Random) -> float:
    roll = rng.random()
    if roll < 0.1:
        return 0.0
    if roll < 0.2:
        return 10.0 ** rng.uniform(-300.0, -200.0)
    if roll < 0.3:
        return 10.0 ** rng.uniform(200.0, 308.0)
    return 10.0 ** rng.uniform(-3.0, 3.0)


def random_grid(gb, rng: random.Random, index: int):
    """One seeded grid: its SweepSpec arguments, keyword by keyword."""
    n_values = tuple(
        rng.choice([1, 2, 3]) if rng.random() < 0.1 else round(10.0 ** rng.uniform(1.0, 4.5))
        for _ in range(rng.randint(1, 3))
    )
    rates = tuple(_rate(rng) for _ in range(rng.randint(1, 2)))
    typical_rate = next((r for r in rates if 0.0 < r < math.inf), 1.0)
    windows = tuple(_window(rng, n_values[0], typical_rate) for _ in range(rng.randint(1, 3)))
    simulate = index % SIMULATED_EVERY == 0 and max(n_values) <= 3000
    return {
        "n_values": n_values,
        "t_values": windows,
        "lambda_values": rates,
        "costs": tuple(_cost(rng) for _ in range(5)),
        "td_mode": rng.choice(gb.TD_MODES),
        "simulation": gb.SimulationConfig(20, seed=index) if simulate else None,
    }


def sweep_outcome(gb, make_spec) -> dict:
    """The rows' reprs and each format's SHA-256, or the error that stopped them."""
    try:
        rows = gb.run_sweep(make_spec())
    except (gb.GroupBuyError, ValueError) as exc:
        return {"error": _error(exc)}
    outcome = {"rows": "\n".join(repr(row) for row in rows)}
    for fmt in gb.REPORT_FORMATS:
        try:
            outcome[fmt] = hashlib.sha256(gb.emit_report(rows, fmt).encode("utf-8")).hexdigest()
        except ValueError as exc:
            outcome[fmt] = _error(exc)
    return outcome


def report_cases(gb):
    from workloads import ClosedForm

    for seed in SEEDS:
        for i, op in enumerate(ClosedForm(seed, Path(os.devnull), Path(gb.__file__)).ops):
            yield f"closed-form seed={seed} op={i}", sweep_outcome(gb, op.spec)
    rng = random.Random("report-identity")
    for index in range(RANDOM_GRIDS):
        grid = random_grid(gb, rng, index)
        axes = grid["t_values"] + grid["lambda_values"]
        tag = f"{NAN_TAG} " if any(math.isnan(v) or v == -math.inf for v in axes) else ""

        def make_spec(grid=grid):
            return gb.SweepSpec(**{**grid, "costs": gb.CostParams(*grid["costs"])})

        label = f"{tag}random {index}: " + ", ".join(f"{k}={v!r}" for k, v in grid.items())
        yield label, sweep_outcome(gb, make_spec)


def child(config: str) -> None:
    """Run every suite on the groupbuy_inventory that PYTHONPATH names; one JSON line a case."""
    sys.path.insert(0, str(PERFBENCH))
    import groupbuy_inventory as gb

    suites = {"cli": cli_cases(config), "simulate": simulate_cases(gb), "report": report_cases(gb)}
    for suite, cases in suites.items():
        for label, outcome in cases:
            print(json.dumps([suite, label, outcome]))


def compare(old_lines: list[str], new_lines: list[str]) -> int:
    """Print each case that differs and one summary line per suite; 0 when all are identical.

    A case that timed out is a difference even when both trees timed out.
    """
    cases = [[json.loads(line) for line in lines] for lines in (old_lines, new_lines)]
    status = 0
    for suite, compared in SUITES.items():
        old, new = ([case[1:] for case in tree if case[0] == suite] for tree in cases)
        if [label for label, _ in old] != [label for label, _ in new]:
            print(f"{suite}: the trees built different cases ({len(old)} and {len(new)})")
            status = 1
            continue
        same = 0
        for (label, before), (_, after) in zip(old, new):
            if before == after and "timeout" not in before:
                same += 1
                continue
            print(f"[DIFF] {suite}: {label}")
            for key in dict.fromkeys([*before, *after]):
                a, b = before.get(key), after.get(key)
                if a == b and key != "timeout":
                    continue
                if isinstance(a, str) and isinstance(b, str) and "\n" in a.strip() + b.strip():
                    diff = difflib.unified_diff(a.splitlines(), b.splitlines(), n=0, lineterm="")
                    # The first two lines are the ---/+++ header.
                    for line in list(diff)[2:]:
                        print(f"       {key}: {line}")
                else:
                    print(f"       {key}: {a!r} -> {b!r}")
        print(f"{suite}: {same}/{len(old)} cases identical ({compared})")
        status |= same != len(old)
    return status


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1])
        return 0
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    trees = [package_root(path) for path in argv]
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "base.cfg"
        config.write_text(BASE_CONFIG, encoding="utf-8")
        outputs = [tempfile.TemporaryFile(mode="w+", encoding="utf-8") for _ in trees]
        # Both trees run at once; stderr passes through, so a crash shows its traceback.
        children = [
            subprocess.Popen(
                [sys.executable, __file__, "--child", str(config)], stdout=out,
                env=dict(os.environ, PYTHONPATH=str(src)),
            )
            for src, out in zip(trees, outputs)
        ]
        codes = [process.wait() for process in children]
    lines = []
    for tree, code, out in zip(argv, codes, outputs):
        with out:
            out.seek(0)
            lines.append(out.read().splitlines())
        if code:
            print(f"the run on {tree} exited {code}")
    return 1 if any(codes) else compare(*lines)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
