"""Benchmark of groupbuy_inventory: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 30 --trace 0

Load comes from one closed-loop client: this process runs one operation at
a time and starts the next when the previous one has finished (for the cli
workload, at most one child process at a time). The timed phase repeats
the workload's seeded pass until the passes have taken ``--seconds`` and
at least MIN_OPS operations have run; it always ends on a pass boundary,
so every run of a seed does the same mix of work. Set-up launches run
between passes, outside the timed wall time.

After every operation (for cli, every other one), outside its timing,
the run times a fixed reference that does not touch the package: a
pure-Python loop, or for cli a fresh interpreter that imports numpy.
Other tenants of a shared host slow everything it runs by up to 1.4x for
minutes at a time, which no statistic over one run's own timings can
filter out; the reference next to an operation slows with it. End-to-end
times are therefore reported at the reference's quiet speed: each one
multiplied by the reference's quiet time over the time of the reference
next to it (see end_to_end_metrics). Each set-up launch is followed by a
reference launch and scaled the same way. The raw timings go to the
record file too.

End-to-end percentiles are Harrell-Davis estimates (see _quantile).

With ``--trace 0`` the end-to-end metrics are reported. With ``--trace 1``
the first pass warms up and later passes alternate traced and untraced;
spans from the traced passes give the per-layer metrics (per pass), and
the traced against the later untraced passes give the tracing overhead.
Each operation's first output is checked after the timed phase; later
passes must reproduce it, which is compared as they run, outside the
operation's own timing.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A fuller record (environment, sample
counts, failures, work counts) goes to .perfbench-out/, and the spans of
a traced run next to it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

from tracing import Tracer, no_span

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
TMP_DIR = ROOT / ".perfbench-tmp"
WORKLOAD_NAMES = ("closed-form", "simulate", "cli")
# 100 samples leave 10 beyond the 90th percentile.
MIN_OPS = 100
SETUP_LAUNCHES = 11
# A timed phase that is still running here stops mid-pass, so that a
# badly slowed program still ends the run well inside three minutes.
HARD_STOP_S = 120.0
# The reference loop's time on the 2-vCPU Intel Xeon VM (2.1 GHz) the
# benchmark was tuned on, when that host was quiet: reported times read as
# seconds on that machine at its quiet speed.
REFERENCE_S = 1.8e-4
# The reference launch, a fresh interpreter that imports numpy and nothing
# of the package, and its time on that VM when it was quiet, rounded.
REFERENCE_ARGV = [sys.executable, "-c", "import numpy"]
REFERENCE_LAUNCH_S = 0.14


def reference_loop() -> float:
    """The fastest of three runs of the fixed reference loop.

    Float arithmetic, math calls, list appends and a sum: the kind of
    interpreter work the package's own loops do, without calling it. The
    first run after an operation can find cold caches; the fastest of
    three does not.
    """
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        terms = []
        term = total = 1.0
        for k in range(1, 1000):
            term *= 0.999 / (1.0 + k * 1e-4)
            terms.append(term)
            total += math.exp(-term) * k
        math.fsum(terms)
        best = min(best, time.perf_counter() - start)
    return best


def timed_launch(argv: list[str], timeout: float = 60.0) -> tuple[float, str]:
    """Run argv in a fresh process from the root of the checkout; returns
    its wall time, launch to exit, and its stdout.

    Waits with a blocking wait, not subprocess's wait with a timeout, which
    polls at intervals growing to 50 ms and so rounds every wall time up to
    the next poll; a watchdog kills a child that runs past the timeout.
    """
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            stdout, stderr = proc.communicate()
        finally:
            watchdog.cancel()
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {stderr[-500:]}")
    return wall, stdout


def reference_launch() -> float:
    """The wall time of one reference launch.

    Start-up of a fresh process slows with other tenants of a shared host
    in its own way, which the interpreter-bound reference loop does not
    follow; this launch reads and imports the same third-party code as the
    package does.
    """
    return timed_launch(REFERENCE_ARGV)[0]


@dataclass
class Record:
    pass_index: int
    op_index: int
    traced: bool
    seconds: float
    # The first pass's output object when this one equals it, so that a run
    # holds one output per operation however many passes it makes.
    out: object
    # Peak resident memory of the operation's child process, if it had one.
    child_rss_kb: int
    # The reference's time, taken right after the operation, if it was.
    reference_s: float | None


@dataclass(frozen=True)
class OpError:
    text: str


class Launches:
    """Timed runs of one command line, each in a fresh process, and their JSON outputs."""

    def __init__(self, argv: list[str]) -> None:
        self.argv = argv
        self.walls: list[float] = []
        self.outputs: list[dict] = []

    def launch(self) -> None:
        wall, stdout = timed_launch(self.argv)
        self.walls.append(wall)
        if stdout.strip():
            self.outputs.append(json.loads(stdout.splitlines()[-1]))

    def fill(self) -> None:
        while len(self.walls) < SETUP_LAUNCHES:
            self.launch()

    def median_wall(self) -> float:
        return statistics.median(self.walls)


def _probe_argv(workload: str) -> list[str]:
    return [sys.executable, str(ROOT / "perfbench" / "probe.py"), workload, str(SRC)]


def timed_phase(wl, seconds: float, trace: bool, min_ops: int, tracer: Tracer,
                between: Callable[[float], None]) -> tuple[list[Record], dict[int, object], float, bool]:
    """Repeat the pass; returns the records, each operation's first output, the summed wall
    time of the passes and whether the hard stop cut the phase short.

    ``between(busy_s)`` runs after each pass, outside the timed wall time."""
    records: list[Record] = []
    first: dict[int, object] = {}
    pass_index = 0
    truncated = False
    start = time.perf_counter()
    busy = 0.0
    while not truncated:
        pass_start = time.perf_counter()
        traced = trace and pass_index % 2 == 1
        span = tracer.span if traced else no_span
        for i, op in enumerate(wl.ops):
            tracer.op = pass_index * len(wl.ops) + i
            t0 = time.perf_counter()
            try:
                out = wl.run(op, span)
            except Exception:  # the run goes on; the operation counts as failed
                out = OpError(traceback.format_exc())
            elapsed = time.perf_counter() - t0
            rss_kb = getattr(out, "maxrss_kb", 0)
            if not isinstance(out, OpError):
                if i not in first:
                    first[i] = out
                elif out == first[i]:
                    out = first[i]
                else:
                    out = OpError("output differs from the first pass")
            records.append(Record(pass_index, i, traced, elapsed, out, rss_kb, None))
            if traced:
                wl.replay(op, span)
            if not trace and i % wl.reference_every == 0:
                records[-1].reference_s = reference_launch() if wl.child_processes else reference_loop()
            if time.perf_counter() - start > HARD_STOP_S:
                truncated = True
                break
        busy += time.perf_counter() - pass_start
        pass_index += 1
        if busy >= seconds and len(records) >= min_ops and (not trace or pass_index >= 3):
            break
        between(busy)
    return records, first, busy, truncated


def check_phase(wl, records: list[Record], first: dict[int, object]) -> list[str]:
    """Check each operation's first output once; an operation that fails its check fails on
    every pass. Returns one message per failed record."""
    verdicts: dict[int, str | None] = {}
    for i, out in first.items():
        try:
            verdicts[i] = wl.check(wl.ops[i], out)
        except Exception:
            verdicts[i] = traceback.format_exc()
    failures = []
    for rec in records:
        message = rec.out.text if isinstance(rec.out, OpError) else verdicts[rec.op_index]
        if message is not None:
            failures.append(f"pass {rec.pass_index} op {rec.op_index}: {message}")
    return failures


def _quantile(values: list[float], p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile (0 < p < 1).

    A weighted mean of all order statistics, the i-th of n weighted by the
    mass of Beta(p(n+1), (1-p)(n+1)) on [(i-1)/n, i/n]: it estimates the
    same quantile as the order statistic at rank p(n+1), but does not jump
    when one operation near that rank runs slower or faster. The weights
    are integrated by Simpson's rule; for fewer than 1/min(p, 1-p) - 1
    samples, where that density is unbounded, it falls back to
    statistics.quantiles.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    if n < 2 or min(a, b) < 1.0:
        return statistics.quantiles(xs, n=100)[round(100 * p) - 1] if n > 1 else xs[0]
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(t: float) -> float:
        if t <= 0.0 or t >= 1.0:
            return float(a == 1.0) if t <= 0.0 else float(b == 1.0)
        return math.exp(log_norm + (a - 1.0) * math.log(t) + (b - 1.0) * math.log1p(-t))

    steps = 16
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        points = [density((i * steps + k) * h) for k in range(steps + 1)]
        weights.append(h / 3.0 * (points[0] + points[-1] + 4.0 * sum(points[1:-1:2]) + 2.0 * sum(points[2:-1:2])))
    return math.fsum(w * x for w, x in zip(weights, xs)) / math.fsum(weights)


def end_to_end_metrics(wl, records, setup_s, first) -> tuple[dict[str, tuple[float, str]], int, float]:
    """The end-to-end metrics, the number of timing samples behind the
    percentiles, and the run's median scale from raw to reference-speed times.

    Every time is first put at the reference's quiet speed: multiplied by
    the quiet reference time (REFERENCE_S for the loop, REFERENCE_LAUNCH_S
    for the launch) over the reference taken next to it, the one right
    after the operation or, where there was none, after the operation
    before. Other tenants of a shared machine slow an operation and the
    reference next to it alike, so the ratio keeps what the operation
    itself costs.

    Every operation runs once per pass. When a pass holds at least MIN_OPS
    distinct operations, an operation's time is the lower quartile of its
    scaled repeats: slow stretches of the host do not slow an operation and
    its reference exactly alike, and the fast end of the ratios repeats
    best from run to run. With fewer distinct operations (cli), every
    scaled repeat is a sample, and an operation's time is their mean.
    ``setup_s`` comes already scaled (see run).
    """
    quiet = REFERENCE_LAUNCH_S if wl.child_processes else REFERENCE_S
    repeats: dict[int, list[float]] = {}
    reference = None
    for r in records:
        if r.reference_s is not None:
            reference = r.reference_s
        repeats.setdefault(r.op_index, []).append(r.seconds * quiet / reference)
    per_op = len(wl.ops) >= MIN_OPS
    op_time = {i: sorted(v)[len(v) // 4] if per_op else statistics.fmean(v) for i, v in repeats.items()}
    samples = list(op_time.values()) if per_op else [t for v in repeats.values() for t in v]
    scale = quiet / statistics.median(r.reference_s for r in records if r.reference_s is not None)
    projected = 0.0
    for i, seconds in op_time.items():
        out = first.get(i)
        projected += seconds * (1.0 if out is None else wl.accuracy_factor(wl.ops[i], out))
    if wl.child_processes:
        # The median child: the largest one's peak is not steady, since a
        # validate child peaks at either about 55 or 70 MB.
        rss_kb = statistics.median(r.child_rss_kb for r in records)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": (len(op_time) / sum(op_time.values()), "1/s"),
        "op_s_p50": (_quantile(samples, 0.5), "s"),
        "op_s_p90": (_quantile(samples, 0.9), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "mc_s_to_1pct": (projected, "s"),
    }
    return metrics, len(samples), scale


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, records, interp_s, import_s) -> dict[str, tuple[float, str]]:
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced and r.pass_index > 0]
    passes = len({r.pass_index for r in traced})

    def names(prefix: str) -> list[str]:
        return sorted({s["name"] for s in tracer.spans if s["name"].startswith(prefix)})

    def busy(prefix: str) -> float:
        return sum(tracer.busy(name) for name in names(prefix))

    def calls(prefix: str) -> int:
        return sum(len(tracer.named(name)) for name in names(prefix))

    stoch_busy, stoch_units = busy("stochastics."), tracer.total("stochastics.auction_statistics", "n")
    cost_busy, cost_calls = busy("costmodel."), calls("costmodel.")
    sweep_busy = tracer.busy("sweep.run_sweep")
    sim = "simulator.simulate"
    sim_busy = tracer.busy(sim)
    auctions, cycles = tracer.total(sim, "auctions"), tracer.total(sim, "cycles")
    logged_busy = sum(s["end"] - s["start"] for s in tracer.named(sim) if s["attrs"]["logged"])

    def median_span(name: str) -> float:
        spans = tracer.named(name)
        return statistics.median(s["end"] - s["start"] for s in spans) if spans else 0.0

    traced_rate = _ratio(len(traced), sum(r.seconds for r in traced))
    untraced_rate = _ratio(len(untraced), sum(r.seconds for r in untraced))
    # A hard stop inside the first traced pass still counts it as one.
    p = float(max(passes, 1))
    return {
        "stochastics.calls": (calls("stochastics.") / p, "count"),
        "stochastics.busy_s": (stoch_busy / p, "s"),
        "stochastics.batch_units": (stoch_units / p, "count"),
        "stochastics.ns_per_batch_unit": (_ratio(stoch_busy * 1e9, stoch_units), "ns"),
        "stochastics.errors": (tracer.total("stochastics.auction_statistics", "errors") / p, "count"),
        "costmodel.calls": (cost_calls / p, "count"),
        "costmodel.busy_s": (cost_busy / p, "s"),
        "costmodel.us_per_call": (_ratio(cost_busy * 1e6, cost_calls), "us"),
        "sweep.cells": (tracer.total("sweep.run_sweep", "cells") / p, "count"),
        "sweep.error_cells": (tracer.total("sweep.run_sweep", "error_cells") / p, "count"),
        "sweep.busy_s": (sweep_busy / p, "s"),
        "sweep.self_s": (tracer.busy("sweep.run_sweep_cached") / p, "s"),
        "sweep.report_s": (tracer.busy("sweep.emit_report") / p, "s"),
        "sweep.report_bytes": (tracer.total("sweep.emit_report", "bytes") / p, "bytes"),
        "simulator.calls": (len(tracer.named(sim)) / p, "count"),
        "simulator.busy_s": (sim_busy / p, "s"),
        "simulator.auctions": (auctions / p, "count"),
        "simulator.dispatches": (tracer.total(sim, "dispatches") / p, "count"),
        "simulator.cycles": (cycles / p, "count"),
        "simulator.useful_frac": (_ratio(tracer.total(sim, "dispatches"), auctions), "fraction"),
        "simulator.us_per_auction": (_ratio(sim_busy * 1e6, auctions), "us"),
        "simulator.us_per_cycle": (_ratio(sim_busy * 1e6, cycles), "us"),
        "simulator.logged_busy_s": (logged_busy / p, "s"),
        "simulator.unlogged_busy_s": ((sim_busy - logged_busy) / p, "s"),
        "simulator.log_bytes": (tracer.total(sim, "log_bytes") / p, "bytes"),
        "cli.interp_s": (interp_s, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.optimize_s": (median_span("cli.optimize"), "s"),
        "cli.sweep_s": (median_span("cli.sweep"), "s"),
        "cli.simulate_s": (median_span("cli.simulate"), "s"),
        "cli.validate_s": (median_span("cli.validate"), "s"),
        # A command that never reported an exit status failed to run at all.
        "cli.nonzero_exits": (sum(s["attrs"].get("exit") != 0 for s in tracer.spans
                                  if s["name"].startswith("cli.")) / p, "count"),
        "trace.ops_per_s": (traced_rate, "1/s"),
        "trace.untraced_ops_per_s": (untraced_rate, "1/s"),
        "trace.overhead_frac": (_ratio(untraced_rate, traced_rate) - 1.0, "fraction"),
    }


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def run(workload: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    from workloads import WORKLOADS

    TMP_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_DIR))
    try:
        wl = WORKLOADS[workload](seed, workdir, SRC)
        tracer = Tracer()
        if trace:
            interp, imports = Launches([sys.executable, "-c", "pass"]), Launches(_probe_argv("cli"))
            interp.fill()
            imports.fill()
            records, first, wall, truncated = timed_phase(wl, seconds, trace, min_ops, tracer, lambda busy: None)
            import_s = statistics.median(o["import_s"] for o in imports.outputs)
            metrics = per_layer_metrics(tracer, records, interp.median_wall(), import_s)
            samples, scale = len(records), None
        else:
            # Set-up launches are spread evenly over the run, between passes, so
            # that their median sees the same machine as the timed phase. Each
            # one is followed by a reference launch; the set-up time is the
            # median of their ratios, at the reference launch's quiet speed.
            setup, reference = Launches(_probe_argv(workload)), Launches(REFERENCE_ARGV)

            def set_up() -> None:
                setup.launch()
                reference.launch()

            set_up()

            def between(busy: float) -> None:
                if len(setup.walls) < SETUP_LAUNCHES and busy >= len(setup.walls) * seconds / SETUP_LAUNCHES:
                    set_up()

            records, first, wall, truncated = timed_phase(wl, seconds, trace, min_ops, tracer, between)
            while len(setup.walls) < SETUP_LAUNCHES:
                set_up()
            setup_s = REFERENCE_LAUNCH_S * statistics.median(
                wall / ref for wall, ref in zip(setup.walls, reference.walls))
            metrics, samples, scale = end_to_end_metrics(wl, records, setup_s, first)
        failures = check_phase(wl, records, first)
        summary = wl.summary(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(failures)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client",
        "environment": environment(),
        "ops_per_pass": len(wl.ops),
        "passes": len(records) / len(wl.ops),
        "traced_passes": len({r.pass_index for r in records if r.traced}),
        "truncated": truncated,
        "samples": samples,
        "reference_scale": scale,
        "setup_walls_s": None if trace else setup.walls,
        "setup_reference_walls_s": None if trace else reference.walls,
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "failures": failures[:20],
        "timed_wall_s": wall,
        "op_seconds": [[r.op_index, r.seconds, r.reference_s] for r in records],
        "workload_summary": summary,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{workload}-seed{seed}-spans.json")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "groupbuy_inventory" / "__init__.py").is_file():
        print(f"perfbench: package source not found under {SRC}", file=sys.stderr)
        return 2
    # The package never calls BLAS, but importing numpy starts an OpenBLAS
    # thread per core; on a 2-vCPU host those compete with the one client
    # and made the median process launch about 70 ms slower. Set before
    # numpy is imported, so it holds here and in every child.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, metric in record["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_frac = {record['fail_frac']:.6g} fraction ({record['failed']} of {record['attempted']} failed)")
    if record["reference_scale"] is not None:
        print(f"reference_scale = {record['reference_scale']:.6g} (median factor from raw to reported operation times)")
    print(f"samples = {record['samples']}; record in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
