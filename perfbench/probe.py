"""Set-up probe, run in a fresh interpreter.

Usage: python3 perfbench/probe.py WORKLOAD SRC_DIR

Imports the package from SRC_DIR (and its cli module for the cli
workload), runs one small untimed warm-up operation of WORKLOAD and
prints {"import_s": ...} as JSON. The parent times the whole process,
from launch to exit, as the set-up time.
"""

import contextlib
import io
import json
import sys
import time


def main() -> int:
    workload, src = sys.argv[1:3]
    start = time.perf_counter()
    sys.path.insert(0, src)
    import groupbuy_inventory as gb

    if workload == "cli":
        import groupbuy_inventory.cli as cli
    import_s = time.perf_counter() - start
    costs = gb.CostParams(40.0, 4.0, 0.02, 10.0, 300.0)
    if workload == "closed-form":
        spec = gb.SweepSpec((10, 12), (0.7, 0.8), (14.0,), costs)
        gb.emit_report(gb.run_sweep(spec), "csv")
    elif workload == "simulate":
        auction = gb.AuctionParams(10, 1.0, 12.0)
        gb.simulate(auction, costs, gb.Policy(40.0), gb.SimulationConfig(10, 0, duration_sampler="erlang"))
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["optimize", "--n-required", "100", "--max-time", "7", "--arrival-rate", "14",
                             "--dispatch-cost", "40", "--transport-cost-per-unit", "4", "--holding-rate",
                             "0.02", "--penalty-cost", "10", "--reorder-cost", "300"])
        if code != 0:
            return code
    print(json.dumps({"import_s": import_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
