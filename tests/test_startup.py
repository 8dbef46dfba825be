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
