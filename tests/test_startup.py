"""The summary of tools/startup.py, fed fixed launch times."""

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "startup", Path(__file__).resolve().parents[1] / "tools" / "startup.py"
)
startup = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(startup)


def test_summary_gives_medians_quartiles_change_and_pairs_won():
    old = [0.100, 0.090, 0.095, 0.105, 0.092]
    new = [0.091, 0.086, 0.096, 0.089, 0.084]
    assert startup.summary({"optimize": (old, new)}) == [
        "| launch | OLD ms (quartiles) | NEW ms (quartiles) | change | NEW faster |",
        "| --- | --- | --- | --- | --- |",
        "| optimize | 95.0 (92.0-100.0) | 89.0 (86.0-91.0) | -6.3% | 4/5 |",
    ]


def test_module_summary_lists_the_modules_one_tree_loads_alone():
    report = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |        120 |   _io\n"
        "import time:      1567 |       5258 |     inspect\n"
        "import time:       637 |       6193 |   dataclasses\n"
        "import time:      1322 |       1322 | groupbuy_inventory.errors\n"
    )
    old = startup.importtime_modules(report)
    assert old == {"_io", "inspect", "dataclasses", "groupbuy_inventory.errors"}
    new = {"_io", "groupbuy_inventory.errors", "json"}
    assert startup.module_summary({"optimize": (old, new), "sweep": (new, new)}) == [
        "| launch | only OLD loads | only NEW loads |",
        "| --- | --- | --- |",
        "| optimize | dataclasses, inspect | json |",
        "| sweep | - | - |",
    ]
