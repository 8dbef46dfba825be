"""The comparison of tools/identity.py, fed case lines built in memory."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py"
)
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

# One case of each suite, as a child prints it.
CASES = {
    "cli": ("optimize --seed -1", {
        "exit": 2, "stdout": "", "stderr": "config error: seed: must be >= 0, got -1\n",
    }),
    "simulate": ("seed=1 stream=0 dispatch reset_to_q logged", {
        "result": "SimulationResult(long_run_cost=38.1)", "event log SHA-256": "ab12",
    }),
    "report": ("closed-form seed=1 op=0", {
        "rows": "SweepRow(n=100)\nSweepRow(n=120)", "csv": "c0", "json": "d1", "markdown": "e2",
    }),
}


def lines(**changes):
    """The case lines, with changes[suite] as that suite's outcome (None drops the case)."""
    out = []
    for suite, (label, outcome) in CASES.items():
        outcome = changes.get(suite, outcome)
        if outcome is not None:
            out.append(json.dumps([suite, label, outcome]))
    return out


def test_identical_cases_give_status_0(capsys):
    assert identity.compare(lines(), lines()) == 0
    assert capsys.readouterr().out == (
        "cli: 1/1 cases identical (stdout, stderr and exit code)\n"
        "simulate: 1/1 cases identical (SimulationResult repr and event-log SHA-256)\n"
        "report: 1/1 cases identical (row reprs and SHA-256 of csv, json and markdown)\n"
    )


@pytest.mark.parametrize(
    "suite,key,value",
    [
        ("cli", "stderr", "config error: seed: must be >= 0, got -2\n"),
        ("simulate", "result", "SimulationResult(long_run_cost=38.2)"),
        ("report", "markdown", "e3"),
        ("report", "rows", "SweepRow(n=100)\nSweepRow(n=121)"),
    ],
)
def test_a_planted_difference_names_its_suite(capsys, suite, key, value):
    label, outcome = CASES[suite]
    assert identity.compare(lines(), lines(**{suite: {**outcome, key: value}})) == 1
    out = capsys.readouterr().out
    assert f"[DIFF] {suite}: {label}\n" in out
    assert f"{suite}: 0/1 cases identical" in out
    if "\n" in value.strip():
        assert f"{key}: -SweepRow(n=120)\n" in out and f"{key}: +SweepRow(n=121)\n" in out
    else:
        assert f"{key}: {outcome[key]!r} -> {value!r}\n" in out


@pytest.mark.parametrize("both", [False, True], ids=["one-side", "both-sides"])
def test_a_timeout_is_a_difference(capsys, both):
    timeout = {"timeout": "stopped after 30 s"}
    old = lines(cli=timeout) if both else lines()
    assert identity.compare(old, lines(cli=timeout)) == 1
    assert "cli: 0/1 cases identical" in capsys.readouterr().out


def test_different_case_lists_name_their_suite(capsys):
    assert identity.compare(lines(), lines(simulate=None)) == 1
    out = capsys.readouterr().out
    assert "simulate: the trees built different cases (1 and 0)\n" in out
    assert "cli: 1/1 cases identical" in out
