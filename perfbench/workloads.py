"""Seeded workloads: the operations of one pass, how to run and check them.

Every workload turns the benchmark seed into one *pass*, a fixed list of
operations. A run repeats the pass, so each run of a seed does the same
work in the same mix; the inputs are stratified so that different seeds
draw from the same distribution evenly. The package receives only the
generated inputs.

``run`` is the timed operation. ``check`` verifies an operation's output
against an independent route and runs outside the timed section, on the
first pass; later passes must reproduce the first pass exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import groupbuy_inventory as gb

# The reference costs of the base scenario (dispatch 40, transport 4/unit,
# holding 0.02, penalty 10, reorder 300); every workload prices with them.
COSTS = gb.CostParams(
    dispatch_cost=40.0,
    unit_transport_cost=4.0,
    holding_rate=0.02,
    failure_penalty=10.0,
    reorder_cost=300.0,
)
# Two-sided 95% normal quantile: turns a reported half-width into a standard error.
Z_95 = 1.959963984540054

Span = Callable[..., object]


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _stratified(rng: random.Random, count: int) -> list[float]:
    """One uniform draw inside each of ``count`` equal strata of [0, 1)."""
    return [(j + rng.random()) / count for j in range(count)]


class Workload:
    """One pass of seeded operations plus their timed call and checks."""

    name = ""
    # Operations run in child processes: peak memory comes from them, and the
    # host-speed reference is a process launch (see run.py).
    child_processes = False
    # The run times its host-speed reference after every this many operations.
    reference_every = 1

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        self.rng = random.Random(f"{self.name}/{seed}")
        self.workdir = workdir
        self.src = src
        self.ops: list = []

    def run(self, op, span: Span) -> object:
        raise NotImplementedError

    def check(self, op, out) -> str | None:
        """Return a failure message, or None when the output is correct."""
        raise NotImplementedError

    def replay(self, op, span: Span) -> None:
        """Extra traced calls, outside the operation's timing."""

    def accuracy_factor(self, op, out) -> float:
        """(half-width / 1% of the estimate)^2 for Monte Carlo outputs, 1 for exact ones."""
        return 1.0

    def summary(self, records: list) -> dict:
        """Facts about the run for the result file, from its (op_index, out) records."""
        return {}


# ---------------------------------------------------------------- closed-form


@dataclass(frozen=True)
class SweepOp:
    n_values: tuple[int, ...]
    t_values: tuple[float, ...]
    lambda_values: tuple[float, ...]
    td_mode: str
    format: str

    def spec(self) -> gb.SweepSpec:
        return gb.SweepSpec(self.n_values, self.t_values, self.lambda_values, COSTS, self.td_mode)


class ClosedForm(Workload):
    """run_sweep over a 2x2x1 grid, then emit_report; no simulation.

    Batch sizes are log-uniform over [10, 3000], one stratum per operation,
    and the windows put lambda*T within half a standard deviation of n, so
    every cell has a moderate success probability. The offset of lambda*T
    from n is stratified too, and which offset stratum and dispatch-time
    mode go with which batch-size stratum is fixed (STRUCTURE): the cost of
    an operation grows with n and depends on the offset, so this keeps the
    seed from moving the percentiles. The seed moves each design inside its
    strata and picks the arrival rates.
    """

    name = "closed-form"
    # The least that leaves 10 samples beyond the 90th percentile; a short
    # pass gives each operation more repeats in a run (see run.py).
    OPS_PER_PASS = 100
    N_MIN, N_MAX = 10, 3000
    RATE_MIN, RATE_MAX = 2.0, 50.0
    STRUCTURE = "closed-form-strata-v1"

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        super().__init__(seed, workdir, src)
        rng = self.rng
        count = self.OPS_PER_PASS
        offset_strata = list(range(count))
        random.Random(self.STRUCTURE).shuffle(offset_strata)
        for j, u in enumerate(_stratified(rng, count)):
            n0 = round(_log_uniform(self.N_MIN, self.N_MAX, u))
            step = max(1, round(0.5 * math.sqrt(n0)))
            rate = _log_uniform(self.RATE_MIN, self.RATE_MAX, rng.random())
            u_offset = (offset_strata[j] + rng.random()) / count
            x0 = n0 + (u_offset - 0.5) * math.sqrt(n0)
            self.ops.append(SweepOp(
                n_values=(n0, n0 + step),
                t_values=(x0 / rate, (x0 + step) / rate),
                lambda_values=(rate,),
                td_mode=gb.TD_MODES[offset_strata[j] % 2],
                format=gb.REPORT_FORMATS[j % 3],
            ))
        rng.shuffle(self.ops)

    def run(self, op: SweepOp, span: Span) -> tuple:
        with span("sweep.run_sweep") as attrs:
            rows = gb.run_sweep(op.spec())
            attrs["cells"] = len(rows)
            attrs["error_cells"] = sum(row.error is not None for row in rows)
        with span("sweep.emit_report") as attrs:
            report = gb.emit_report(rows, op.format)
            attrs["bytes"] = len(report.encode())
        return rows, report

    def replay(self, op: SweepOp, span: Span) -> None:
        # The same cells' statistics and cost-model calls, timed one by one.
        # Then run_sweep once more with all of them served from these results:
        # what remains is the sweep's own work (sweep.self_s), which is far
        # below the noise of subtracting two timings of the whole sweep.
        results: dict[gb.AuctionParams, tuple | gb.GroupBuyError] = {}
        for n in op.n_values:
            for t in op.t_values:
                for rate in op.lambda_values:
                    params = gb.AuctionParams(n, t, rate)
                    with span("stochastics.auction_statistics", n=n) as attrs:
                        try:
                            stats = gb.auction_statistics(params)
                        except gb.GroupBuyError as exc:
                            attrs["errors"] = 1
                            results[params] = exc
                            continue
                    with span("costmodel.optimal_quantity"):
                        q_star = gb.optimal_quantity(stats, COSTS, n, op.td_mode)
                    with span("costmodel.best_integer_quantity"):
                        q_int = gb.best_integer_quantity(stats, COSTS, n, op.td_mode)
                    with span("costmodel.optimal_cost"):
                        cost = gb.optimal_cost(stats, COSTS, n, op.td_mode)
                    results[params] = (stats, q_star, q_int, cost)
        by_stats = {id(r[0]): r for r in results.values() if isinstance(r, tuple)}
        # Imported here, since unittest.mock pulls in asyncio, which would add
        # to the peak memory of untraced runs.
        from unittest import mock

        def cached_statistics(params: gb.AuctionParams) -> gb.AuctionStatistics:
            result = results[params]
            if isinstance(result, gb.GroupBuyError):
                raise result
            return result[0]

        with mock.patch.multiple(
            gb.sweep,
            auction_statistics=cached_statistics,
            optimal_quantity=lambda stats, *args: by_stats[id(stats)][1],
            best_integer_quantity=lambda stats, *args: by_stats[id(stats)][2],
            optimal_cost=lambda stats, *args: by_stats[id(stats)][3],
        ), span("sweep.run_sweep_cached"):
            gb.run_sweep(op.spec())

    def check(self, op: SweepOp, out: tuple) -> str | None:
        rows, report = out
        if len(rows) != 4 or any(row.error for row in rows):
            return f"expected 4 good cells, got {[row.error for row in rows]}"
        for row in rows:
            params = gb.AuctionParams(row.n, row.t, row.arrival_rate)
            where = f"n={row.n} t={row.t!r} rate={row.arrival_rate!r}"
            p_tail = gb.success_probability_poisson_tail(params)
            if abs(row.p_success - p_tail) > 1e-9:
                return f"{where}: p {row.p_success!r} vs Poisson tail {p_tail!r}"
            stats = gb.auction_statistics(params)
            x = row.arrival_rate * row.t
            closed = (row.n / row.arrival_rate) * gb.regularized_lower_gamma(row.n + 1.0, x) + row.t * (
                1.0 - gb.regularized_lower_gamma(float(row.n), x)
            )
            if abs(stats.e_min_duration - closed) > 1e-9 * closed:
                return f"{where}: E[min(S,T)] {stats.e_min_duration!r} vs closed form {closed!r}"
            first, _ = gb.cost_derivatives(stats, COSTS, gb.Policy(row.q_star_real), row.n, op.td_mode)
            if abs(first) > 1e-9 * COSTS.holding_rate:
                return f"{where}: C'(Q*) = {first!r}, not 0"

            def cost(q: int) -> float:
                return gb.long_run_average_cost(stats, COSTS, gb.Policy(float(q)), row.n, op.td_mode)

            q = row.q_star_integer
            neighbours = [q + 1] + ([q - 1] if q > 1 else [])
            if any(cost(other) < cost(q) for other in neighbours):
                return f"{where}: integer quantity {q} is beaten by a neighbour"
        return _check_report(op.format, rows, report)


def _check_report(fmt: str, rows: list, report: str) -> str | None:
    quantities = [row.q_star_integer for row in rows]
    if fmt == "csv":
        parsed = list(csv.DictReader(io.StringIO(report)))
        if [int(r["q_star_integer"]) for r in parsed] != quantities:
            return "csv report disagrees with the rows"
    elif fmt == "json":
        if [r["q_star_integer"] for r in json.loads(report)] != quantities:
            return "json report disagrees with the rows"
    elif not report.startswith("# Replenishment policy sweep") or "ERR" in report:
        return "markdown report is malformed"
    return None


# ------------------------------------------------------------------ simulate


@dataclass(frozen=True)
class SimOp:
    auction: gb.AuctionParams
    quantity: int
    config: gb.SimulationConfig
    stream: int
    p_success: float
    expected_auctions: float
    log_path: Path | None


def _window_for(n: int, p: float) -> float:
    """lambda*T at which the success probability P(n, lambda*T) equals p."""
    lo, hi = 0.0, n + 40.0 * math.sqrt(n) + 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gb.regularized_lower_gamma(float(n), mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class Simulate(Workload):
    """One simulate call per operation, each on its own stream.

    Success probabilities are log-uniform over [0.01, 0.97], one stratum
    per operation, across both samplers and both shortfall rules, at the
    best integer quantity. Every tenth operation draws p from [0.2, 0.97]
    and writes an event log. Batch sizes are stratified too, and so is the
    number of batches per cycle, ceil(Q/n): the arrival rate is solved for
    so that the optimum Q* sits half a batch below it. Which strata go
    together, and the order of the operations, are fixed (STRUCTURE), so
    every seed runs the same mix of designs in the same order; the seed
    moves each design inside its strata and picks the random streams.

    Batches per cycle are capped so that the expected auction count
    num_cycles*ceil(Q/n)/p stays within AUCTION_BUDGET
    (LOGGED_AUCTION_BUDGET for logged operations, which keeps logging a
    minor share of the pass); no operation can run unbounded.
    """

    name = "simulate"
    OPS_PER_PASS = 100
    LOG_EVERY = 10
    NUM_CYCLES = 500
    AUCTION_BUDGET = 100_000
    LOGGED_AUCTION_BUDGET = 10_000
    P_MIN, P_MAX, P_LOGGED_MIN = 0.01, 0.97, 0.2
    N_MIN, N_MAX = 10, 200
    BATCHES_MAX = 12
    STRUCTURE = "simulate-strata-v1"

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        super().__init__(seed, workdir, src)
        rng = self.rng
        root_seed = rng.getrandbits(63)
        count = self.OPS_PER_PASS
        logged = [j % self.LOG_EVERY == self.LOG_EVERY - 1 for j in range(count)]
        p_strata = {flag: list(range(logged.count(flag))) for flag in (True, False)}
        n_strata, batch_strata = list(range(count)), list(range(count))
        fixed = random.Random(self.STRUCTURE)
        fixed.shuffle(n_strata)
        fixed.shuffle(batch_strata)
        for j in range(count):
            p_min = self.P_LOGGED_MIN if logged[j] else self.P_MIN
            u_p = (p_strata[logged[j]].pop(0) + rng.random()) / logged.count(logged[j])
            u_n = (n_strata[j] + rng.random()) / count
            self.ops.append(self._design(
                p_target=_log_uniform(p_min, self.P_MAX, u_p),
                n=round(_log_uniform(self.N_MIN, self.N_MAX, u_n)),
                batches=round(_log_uniform(1, self.BATCHES_MAX, (batch_strata[j] + 0.5) / count)),
                budget=self.LOGGED_AUCTION_BUDGET if logged[j] else self.AUCTION_BUDGET,
                config=gb.SimulationConfig(
                    self.NUM_CYCLES, root_seed, gb.SHORTFALL_RULES[(j // 2) % 2], gb.DURATION_SAMPLERS[j % 2]
                ),
                stream=j,
                log_path=workdir / f"events-{j}.jsonl" if logged[j] else None,
            ))
        # The order is fixed too: the peak memory of the process depends on
        # the order of the large duration-draw allocations, and took one of
        # three levels 20% apart when the seed chose the order.
        fixed.shuffle(self.ops)

    def _design(self, p_target, n, batches, budget, config, stream, log_path) -> SimOp:
        x = _window_for(n, p_target)
        # At unit rate the dispatch spacing is td1; at rate r it is td1/r, and
        # Q* = sqrt(2*K*n*r / (I*td1)). Solve Q* = (batches - 1/2)*n for r.
        td1 = gb.auction_statistics(gb.AuctionParams(n, x, 1.0)).dispatch_time_consistent
        p = gb.success_probability(gb.AuctionParams(n, x, 1.0))
        batches = max(1, min(batches, math.floor(budget * p / config.num_cycles)))
        rate = (batches - 0.5) ** 2 * n * COSTS.holding_rate * td1 / (2.0 * COSTS.reorder_cost)
        auction = gb.AuctionParams(n, x / rate, rate)
        stats = gb.auction_statistics(auction)
        quantity = gb.best_integer_quantity(stats, COSTS, n, "consistent")
        expected = config.num_cycles * math.ceil(quantity / n) / stats.p_success
        if expected > budget:
            raise RuntimeError(f"{auction} Q={quantity}: {expected:.0f} expected auctions exceed {budget}")
        if config.shortfall_rule == "carry_shortfall" and quantity < n:
            config = dataclasses.replace(config, shortfall_rule="reset_to_q")
        return SimOp(auction, quantity, config, stream, stats.p_success, expected, log_path)

    def run(self, op: SimOp, span: Span) -> tuple:
        with span("simulator.simulate", logged=int(op.log_path is not None)) as attrs:
            result = gb.simulate(
                op.auction, COSTS, gb.Policy(float(op.quantity)), op.config,
                stream=op.stream, event_log=op.log_path,
            )
            log_bytes = op.log_path.stat().st_size if op.log_path is not None else 0
            attrs.update(
                auctions=result.counts.auctions,
                dispatches=result.counts.dispatches,
                cycles=result.counts.cycles,
                log_bytes=log_bytes,
            )
        return result, log_bytes

    def check(self, op: SimOp, out: tuple) -> str | None:
        result, log_bytes = out
        counts = result.counts
        if counts.failures + counts.dispatches != counts.auctions:
            return f"failures + dispatches != auctions: {counts}"
        if counts.cycles != op.config.num_cycles:
            return f"cycles {counts.cycles} != num_cycles {op.config.num_cycles}"
        if result.long_run_cost != result.total_cost / result.total_time:
            return "long_run_cost != total_cost / total_time"
        if op.config.shortfall_rule == "reset_to_q":
            stats = gb.auction_statistics(op.auction)
            analytic = gb.long_run_average_cost(
                stats, COSTS, gb.Policy(float(op.quantity)), op.auction.n_required, "consistent", "exact"
            )
            z = (result.long_run_cost - analytic) * Z_95 / result.long_run_cost_halfwidth
            if not abs(z) <= 5.0:
                return f"{op.auction} Q={op.quantity}: cost rate z={z:.2f} vs consistent/exact analytic"
        if op.log_path is not None:
            with open(op.log_path, "rb") as fh:
                lines = sum(1 for _ in fh)
            if lines != counts.auctions or log_bytes != op.log_path.stat().st_size:
                return f"event log has {lines} lines for {counts.auctions} auctions"
        return None

    def accuracy_factor(self, op: SimOp, out: tuple) -> float:
        result = out[0]
        return (result.long_run_cost_halfwidth / (0.01 * result.long_run_cost)) ** 2

    def summary(self, records: list) -> dict:
        done = [r for r in records if isinstance(r.out, tuple)]
        return {
            "expected_auctions_per_run": sum(self.ops[r.op_index].expected_auctions for r in done),
            "actual_auctions_per_run": sum(r.out[0].counts.auctions for r in done),
            "auction_budget_per_op": self.AUCTION_BUDGET,
            "num_cycles": self.NUM_CYCLES,
            "p_success_range": [min(op.p_success for op in self.ops), max(op.p_success for op in self.ops)],
        }


# ----------------------------------------------------------------------- cli


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
BASE_AUCTION = gb.AuctionParams(100, 7.0, 14.0)
BASE_QUANTITY = 434
REFERENCE_GRID = ((80, 100, 120), (6.0, 7.0, 8.0), (14.0,))


@dataclass(frozen=True)
class CliOp:
    command: str
    args: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class CliOut:
    code: int
    stdout: str
    stderr_tail: str = field(compare=False)
    maxrss_kb: int = field(compare=False)


class Cli(Workload):
    """One fresh ``python -m groupbuy_inventory.cli`` process per operation.

    A pass is a seeded shuffle of ROTATION over the base scenario. The
    weights put the median among the simulate runs and the 90th percentile
    among the validate runs, each well inside its group.
    """

    name = "cli"
    child_processes = True
    # A reference launch takes about half as long as a command; after every
    # other command, 50 of them in a run give a steady median.
    reference_every = 2
    ROTATION = ("optimize",) * 2 + ("sweep",) + ("simulate",) * 4 + ("validate",) * 3
    SIMULATE_CYCLES = 3000
    VALIDATE_CYCLES = 8000
    TIMEOUT_S = 60.0

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        super().__init__(seed, workdir, src)
        rng = self.rng
        self.config_path = workdir / "base.cfg"
        self.config_path.write_text(BASE_CONFIG, encoding="utf-8")
        self.stderr_path = workdir / "cli-stderr.txt"
        self.env = dict(os.environ, PYTHONPATH=str(src))
        sweep_format = gb.REPORT_FORMATS[rng.randrange(3)]
        commands = list(self.ROTATION)
        rng.shuffle(commands)
        for command in commands:
            seed_j = rng.getrandbits(32)
            args: tuple[str, ...] = ()
            if command == "sweep":
                args = ("--n-values", "80,100,120", "--t-values", "6,7,8", "--lambda-values", "14",
                        "--format", sweep_format)
            elif command == "simulate":
                args = ("--quantity", str(BASE_QUANTITY), "--cycles", str(self.SIMULATE_CYCLES),
                        "--seed", str(seed_j))
            elif command == "validate":
                args = ("--cycles", str(self.VALIDATE_CYCLES), "--seed", str(seed_j))
            self.ops.append(CliOp(command, args, seed_j))
        self.stats = gb.auction_statistics(BASE_AUCTION)

    def run(self, op: CliOp, span: Span) -> CliOut:
        argv = [sys.executable, "-m", "groupbuy_inventory.cli", op.command, str(self.config_path), *op.args]
        with span(f"cli.{op.command}") as attrs, open(self.stderr_path, "wb") as err:
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=self.workdir, env=self.env)
            watchdog = threading.Timer(self.TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                watchdog.cancel()
            attrs["exit"] = proc.returncode
        stderr_tail = ""
        if proc.returncode != 0:
            stderr_tail = self.stderr_path.read_text(encoding="utf-8", errors="replace")[-500:]
        return CliOut(proc.returncode, stdout.decode(), stderr_tail, usage.ru_maxrss)

    def check(self, op: CliOp, out: CliOut) -> str | None:
        if out.code != 0:
            return f"{op.command} exited {out.code}: {out.stderr_tail}"
        text = out.stdout
        if op.command == "optimize":
            q_int = gb.best_integer_quantity(self.stats, COSTS, 100, "paper")
            q_star = gb.optimal_quantity(self.stats, COSTS, 100, "paper")
            m_int = re.search(r"best integer quantity\s+(\d+)", text)
            m_star = re.search(r"optimal quantity\s+\S+\s+\((\S+)\)", text)
            if not (m_int and int(m_int.group(1)) == q_int == BASE_QUANTITY):
                return f"optimize: best integer quantity is not {q_int}"
            if not (m_star and float(m_star.group(1)) == q_star):
                return f"optimize: optimal quantity is not {q_star!r}"
        elif op.command == "sweep":
            spec = gb.SweepSpec(*REFERENCE_GRID, COSTS, "paper")
            fmt = op.args[op.args.index("--format") + 1]
            if text != gb.emit_report(gb.run_sweep(spec), fmt):
                return "sweep: report differs from the library's"
        elif op.command == "simulate":
            config = gb.SimulationConfig(self.SIMULATE_CYCLES, op.seed)
            result = gb.simulate(BASE_AUCTION, COSTS, gb.Policy(float(BASE_QUANTITY)), config)
            c = result.counts
            expected = (
                f"long-run cost rate         {result.long_run_cost:>12.6f}",
                f"counts: auctions={c.auctions} failures={c.failures} "
                f"dispatches={c.dispatches} cycles={c.cycles}",
            )
            if not all(line in text for line in expected):
                return "simulate: estimates differ from the library's"
        elif not re.search(r"^summary: \d+ passed, 0 failed", text, re.M):
            return "validate: a check failed"
        return None

    def accuracy_factor(self, op: CliOp, out: CliOut) -> float:
        if op.command != "simulate":
            return 1.0
        m = re.search(r"long-run cost rate\s+(\S+)\s+\(95% halfwidth (\S+)\)", out.stdout)
        if m is None:
            return 1.0
        return (float(m.group(2)) / (0.01 * float(m.group(1)))) ** 2


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (ClosedForm, Simulate, Cli)}
