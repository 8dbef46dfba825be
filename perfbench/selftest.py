"""Self-test of the benchmark: seeded inputs and work counts repeat exactly.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For the closed-form and simulate workloads it makes two short traced runs
of one seed and requires that both pass every correctness check and that
the deterministic work counts are identical between them. It also requires
that the same seed builds the same operations and another seed other ones,
for every workload. Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import run

DETERMINISTIC = {
    "closed-form": ("stochastics.batch_units", "sweep.cells"),
    "simulate": ("simulator.auctions", "simulator.dispatches", "simulator.cycles", "simulator.log_bytes"),
}
SEED = 7


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    problems: list[str] = []
    for name, cls in WORKLOADS.items():
        with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
            a, b, c = (cls(seed, Path(tmp), run.SRC).ops for seed in (SEED, SEED, SEED + 1))
        if a != b:
            problems.append(f"{name}: seed {SEED} built different operations twice")
        if a == c:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} built the same operations")
    for name, keys in DETERMINISTIC.items():
        first, second = (run.run(name, SEED, seconds=0.0, trace=True, min_ops=1) for _ in range(2))
        for record in (first, second):
            if record["failed"]:
                problems.append(f"{name}: {record['failed']} failed checks: {record['failures'][:3]}")
        for key in keys:
            values = [record["metrics"][key]["value"] for record in (first, second)]
            if values[0] != values[1] or values[0] <= 0:
                problems.append(f"{name}: {key} is not a repeatable positive count: {values}")
            print(f"{name} {key} = {values[0]:g} in both runs")
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
