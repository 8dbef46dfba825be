"""Launch times of two source trees, in alternating rounds.

Usage: python3 tools/startup.py OLD NEW [--rounds N]

Each tree is a checkout root (its ``src/`` is used) or a directory that
holds the ``groupbuy_inventory`` package. Every round launches, from each
tree, perfbench's three set-up probes and the cli workload's four commands
on the base scenario (the ops of its seed 1); the tree that goes first
alternates from round to round. Each launch is followed by the benchmark's
reference launch, and its time is scaled to the reference's quiet time,
as perfbench scales ``setup_s``. For each launch the script prints a
markdown table row: both trees' median with its quartiles in ms, the
change of the medians and the rounds in which NEW was faster. It then
launches each command once more per tree under ``-X importtime`` and prints,
per launch, the modules that one tree loads and the other does not.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tools")]

from identity import package_root  # noqa: E402
from run import REFERENCE_ARGV, REFERENCE_LAUNCH_S, timed_launch  # noqa: E402

PROBES = ("closed-form", "simulate", "cli")


def launches(src: Path, workdir: Path) -> dict[str, list[str]]:
    """Each launch's name and command line, for the package in src."""
    from workloads import Cli

    ops = {op.command: op for op in Cli(1, workdir, src).ops}
    probe = str(ROOT / "perfbench" / "probe.py")
    config = str(workdir / "base.cfg")
    return {
        **{f"probe {name}": [sys.executable, probe, name, str(src)] for name in PROBES},
        **{command: [sys.executable, "-m", "groupbuy_inventory.cli", command, config, *op.args]
           for command, op in ops.items()},
    }


def scaled_launch(argv: list[str], src: Path) -> float:
    """argv's wall time, with src on PYTHONPATH, at the reference launch's quiet speed."""
    os.environ["PYTHONPATH"] = str(src)
    try:
        wall = timed_launch(argv)[0]
    finally:
        del os.environ["PYTHONPATH"]
    return REFERENCE_LAUNCH_S * wall / timed_launch(REFERENCE_ARGV)[0]


def importtime_modules(report: str) -> set[str]:
    """The module names in a ``-X importtime`` report.

    The report also lists an import that failed, such as ``copy``'s try of
    ``org.python.core``, so such a name counts as loaded.
    """
    return {
        line.rsplit("|", 1)[1].strip()
        for line in report.splitlines()
        if line.startswith("import time:") and not line.endswith("| imported package")
    }


def imported_modules(argv: list[str], src: Path) -> set[str]:
    """The modules argv loads, with src on PYTHONPATH."""
    result = subprocess.run(
        [argv[0], "-X", "importtime", *argv[1:]], capture_output=True, text=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=60, check=True,
    )
    return importtime_modules(result.stderr)


def module_summary(modules: dict[str, tuple[set[str], set[str]]]) -> list[str]:
    """A markdown table of the modules each launch loads from one tree only."""
    lines = ["| launch | only OLD loads | only NEW loads |", "| --- | --- | --- |"]
    for name, (old, new) in modules.items():
        only = [", ".join(sorted(a - b)) or "-" for a, b in ((old, new), (new, old))]
        lines.append(f"| {name} | {only[0]} | {only[1]} |")
    return lines


def summary(times: dict[str, tuple[list[float], list[float]]]) -> list[str]:
    """A markdown table of each launch's (OLD, NEW) times in s, one per round."""
    lines = [
        "| launch | OLD ms (quartiles) | NEW ms (quartiles) | change | NEW faster |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name, (old, new) in times.items():
        cells = []
        for values in (old, new):
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            cells.append(f"{1e3 * median:.1f} ({1e3 * q1:.1f}-{1e3 * q3:.1f})")
        change = statistics.median(new) / statistics.median(old) - 1.0
        won = sum(b < a for a, b in zip(old, new))
        lines.append(f"| {name} | {cells[0]} | {cells[1]} | {change:+.1%} | {won}/{len(old)} |")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--rounds", type=int, default=11)
    args = parser.parse_args(argv)
    trees = [package_root(args.old), package_root(args.new)]
    with tempfile.TemporaryDirectory() as tmp:
        # The cli workload's module imports the package: NEW's.
        sys.path.insert(0, str(trees[1]))
        plans = [launches(tree, Path(tmp)) for tree in trees]
        times = {name: ([], []) for name in plans[1]}
        for index in range(args.rounds):
            for side in (0, 1) if index % 2 == 0 else (1, 0):
                for name, command in plans[side].items():
                    times[name][side].append(scaled_launch(command, trees[side]))
            print(f"round {index + 1}/{args.rounds}", file=sys.stderr)
        modules = {
            name: tuple(imported_modules(plans[side][name], trees[side]) for side in (0, 1))
            for name in plans[1]
        }
    print("\n".join(summary(times)))
    print()
    print("\n".join(module_summary(modules)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
