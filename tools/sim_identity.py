"""Bit-identity check of simulate between two source trees.

Usage: python3 tools/sim_identity.py OLD_SRC NEW_SRC

Each SRC is a checkout root (its ``src/`` is used) or a directory that
holds the ``groupbuy_inventory`` package. One child process per tree
builds the designs of the benchmark's simulate workload
(``perfbench/workloads.py`` next to this script) for each seed in SEEDS,
and runs every design under all three duration samplers and both
shortfall rules, once without and once with an event log. Per run it
reports the repr of the SimulationResult, or the type and text of the
error raised, and the SHA-256 of the event log's UTF-8 bytes. The script
prints each run that differs between the trees and a summary; it exits 0
when every run is identical and 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_golden import package_root

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (1, 3)


class _Digest:
    """A text sink that keeps only the SHA-256 of the UTF-8 bytes written to it."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode("utf-8"))
        return len(text)


def child() -> None:
    """Run every design on the groupbuy_inventory that PYTHONPATH names; one JSON line each."""
    sys.path.insert(0, str(PERFBENCH))
    import groupbuy_inventory as gb
    from workloads import COSTS, Simulate

    for seed in SEEDS:
        # The workload's own log paths go unused: each run logs to a _Digest.
        for op in Simulate(seed, Path(os.devnull), Path(gb.__file__)).ops:
            design = f"seed={seed} stream={op.stream} {op.auction} Q={op.quantity}"
            for sampler in gb.DURATION_SAMPLERS:
                for rule in gb.SHORTFALL_RULES:
                    config = dataclasses.replace(
                        op.config, shortfall_rule=rule, duration_sampler=sampler
                    )
                    for log in (None, _Digest()):
                        try:
                            result = repr(gb.simulate(
                                op.auction, COSTS, gb.Policy(float(op.quantity)), config,
                                stream=op.stream, event_log=log,
                            ))
                        except gb.GroupBuyError as exc:
                            result = f"{type(exc).__name__}: {exc}"
                        label = f"{design} {sampler} {rule} {'logged' if log else 'unlogged'}"
                        digest = log.sha.hexdigest() if log else None
                        print(json.dumps([label, result, digest]))


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
    if [run[0] for run in old_runs] != [run[0] for run in new_runs]:
        print("the trees built different designs")
        return 1
    identical = 0
    for (label, old_result, old_digest), (_, new_result, new_digest) in zip(old_runs, new_runs):
        if (old_result, old_digest) == (new_result, new_digest):
            identical += 1
            continue
        print(f"[DIFF] {label}")
        if old_result != new_result:
            print(f"       old: {old_result}\n       new: {new_result}")
        if old_digest != new_digest:
            print(f"       event log SHA-256: {old_digest} -> {new_digest}")
    print(
        f"summary: {identical}/{len(old_runs)} runs identical "
        "(SimulationResult repr and event-log SHA-256)"
    )
    return 0 if identical == len(old_runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
