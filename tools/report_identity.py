"""Byte-identity check of run_sweep and emit_report between two source trees.

Usage: python3 tools/report_identity.py OLD_SRC NEW_SRC

Each SRC is a checkout root (its ``src/`` is used) or a directory that
holds the ``groupbuy_inventory`` package. One child process per tree
sweeps the grids of the benchmark's closed-form workload
(``perfbench/workloads.py`` next to this script) for each seed in SEEDS,
then RANDOM_GRIDS seeded random grids: error cells, unbounded and
negative windows, tiny success probabilities, extreme and zero costs,
NaN entries, and a simulation on every SIMULATED_EVERY-th grid. Per grid
it reports the repr of each row, or the type and text of the error
raised, and the SHA-256 of the CSV, JSON and markdown reports (or the
error each raised). The script prints each grid that differs between the
trees, and a summary that counts the differing grids with a NaN or -inf
axis entry apart; it exits 0 when every grid is identical and 1
otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_golden import package_root

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 3)
RANDOM_GRIDS = 3000
SIMULATED_EVERY = 25


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


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def sweep_outcome(gb, make_spec) -> dict:
    """The rows' reprs and each format's SHA-256, or the error that stopped them."""
    try:
        rows = gb.run_sweep(make_spec())
    except (gb.GroupBuyError, ValueError) as exc:
        return {"error": _error(exc)}
    outcome = {"rows": [repr(row) for row in rows]}
    for fmt in gb.REPORT_FORMATS:
        try:
            outcome[fmt] = _sha(gb.emit_report(rows, fmt))
        except ValueError as exc:
            outcome[fmt] = _error(exc)
    return outcome


def child() -> None:
    """Sweep every grid on the groupbuy_inventory that PYTHONPATH names; one JSON line each."""
    sys.path.insert(0, str(PERFBENCH))
    import groupbuy_inventory as gb
    from workloads import ClosedForm

    for seed in SEEDS:
        for i, op in enumerate(ClosedForm(seed, Path(os.devnull), Path(gb.__file__)).ops):
            label = f"closed-form seed={seed} op={i}"
            print(json.dumps([label, False, sweep_outcome(gb, op.spec)]))
    rng = random.Random("report-identity")
    for index in range(RANDOM_GRIDS):
        grid = random_grid(gb, rng, index)
        axes = grid["t_values"] + grid["lambda_values"]
        flagged = any(math.isnan(v) or v == -math.inf for v in axes)

        def make_spec(grid=grid):
            return gb.SweepSpec(**{**grid, "costs": gb.CostParams(*grid["costs"])})

        label = f"random {index}: " + ", ".join(f"{k}={v!r}" for k, v in grid.items())
        print(json.dumps([label, flagged, sweep_outcome(gb, make_spec)]))


def main(argv: list[str]) -> int:
    if argv == ["--child"]:
        child()
        return 0
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    trees = [package_root(path) for path in argv]
    outputs = [tempfile.TemporaryFile(mode="w+", encoding="utf-8") for _ in trees]
    # Both trees run at once; stderr passes through, so a crash shows its traceback.
    children = [
        subprocess.Popen(
            [sys.executable, __file__, "--child"], stdout=out, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        for src, out in zip(trees, outputs)
    ]
    codes = [process.wait() for process in children]
    runs = []
    for tree, code, out in zip(argv, codes, outputs):
        with out:
            out.seek(0)
            runs.append([json.loads(line) for line in out])
        if code:
            print(f"the run on {tree} exited {code}")
    if any(codes):
        return 1
    old_runs, new_runs = runs
    if [run[:2] for run in old_runs] != [run[:2] for run in new_runs]:
        print("the trees built different grids")
        return 1
    identical = flagged_diffs = 0
    for (label, flagged, old), (_, _, new) in zip(old_runs, new_runs):
        if old == new:
            identical += 1
            continue
        flagged_diffs += flagged
        print(f"[DIFF{' NaN/-inf' if flagged else ''}] {label}")
        for key in sorted(set(old) | set(new)):
            if old.get(key) != new.get(key):
                print(f"       {key}: {old.get(key)}\n       {' ' * len(key)}  -> {new.get(key)}")
    flagged_total = sum(run[1] for run in old_runs)
    print(
        f"summary: {identical}/{len(old_runs)} grids identical (row reprs and SHA-256 of "
        f"csv, json and markdown); {flagged_diffs} of the {len(old_runs) - identical} that "
        f"differ have a NaN or -inf axis entry ({flagged_total} grids have one)"
    )
    return 0 if identical == len(old_runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
