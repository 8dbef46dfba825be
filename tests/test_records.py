"""The package's frozen records: each behaves as a frozen dataclass, whatever
builds its __init__ and its ==, hash and repr. Their float fields, and the
other float arguments the library checks, refuse an int past the float range."""

import copy
import dataclasses
import math
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from groupbuy_inventory import (
    AuctionParams,
    AuctionStatistics,
    CostParams,
    DomainError,
    ParameterError,
    Policy,
    SimulationConfig,
    SweepRow,
    SweepSpec,
    dispatches_per_cycle,
    eoq_limit,
    erlang_pdf,
    regularized_lower_gamma,
    run_sweep,
)
from groupbuy_inventory.costmodel import CostBreakdown
from groupbuy_inventory.errors import int_text, replace
from groupbuy_inventory.runconfig import RunConfig
from groupbuy_inventory.simulator import SimulationCounts, SimulationResult

REQUIRED = dataclasses.MISSING
COSTS = CostParams(40.0, 4.0, 0.02, 10.0, 300.0)
COUNTS = SimulationCounts(12, 2, 10, 2)

# Each record: its fields as (name, default), and one argument per field.
RECORDS = [
    (CostParams,
     [("dispatch_cost", REQUIRED), ("unit_transport_cost", REQUIRED), ("holding_rate", REQUIRED),
      ("failure_penalty", REQUIRED), ("reorder_cost", REQUIRED)],
     (40.0, 4.0, 0.02, 10.0, 300.0)),
    (Policy, [("quantity", REQUIRED)], (434.0,)),
    (CostBreakdown,
     [("holding", REQUIRED), ("dispatching", REQUIRED), ("transport", REQUIRED),
      ("penalty", REQUIRED), ("reorder", REQUIRED), ("cycle_length", REQUIRED),
      ("cycle_total", REQUIRED), ("long_run_average", REQUIRED)],
     (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 15.0, 2.5)),
    (SimulationConfig,
     [("num_cycles", REQUIRED), ("seed", 0), ("shortfall_rule", "reset_to_q"),
      ("duration_sampler", "dispatch")],
     (200, 7, "carry_shortfall", "erlang")),
    (SimulationCounts,
     [("auctions", REQUIRED), ("failures", REQUIRED), ("dispatches", REQUIRED),
      ("cycles", REQUIRED)],
     (12, 2, 10, 2)),
    (SimulationResult,
     [("p_hat", REQUIRED), ("p_hat_se", REQUIRED), ("mean_dispatch_interval", REQUIRED),
      ("mean_dispatch_interval_se", REQUIRED), ("mean_cycle_length", REQUIRED),
      ("mean_cycle_length_se", REQUIRED), ("mean_cycle_cost", REQUIRED),
      ("mean_cycle_cost_se", REQUIRED), ("total_cost", REQUIRED), ("total_time", REQUIRED),
      ("long_run_cost", REQUIRED), ("long_run_cost_se", REQUIRED),
      ("long_run_cost_halfwidth", REQUIRED), ("counts", REQUIRED)],
     (0.8, 0.1, 9.5, 0.5, 48.0, 2.0, 2000.0, 90.0, 4000.0, 96.0, 41.7, 1.2, 2.35, COUNTS)),
    (AuctionParams,
     [("n_required", REQUIRED), ("max_time", REQUIRED), ("arrival_rate", REQUIRED)],
     (100, math.inf, 14.0)),
    (AuctionStatistics,
     [("p_success", REQUIRED), ("e_min_duration", REQUIRED), ("e_cond_duration", REQUIRED),
      ("expected_failures", REQUIRED), ("dispatch_time_paper", REQUIRED),
      ("dispatch_time_consistent", REQUIRED)],
     (0.43, 6.9, 6.6, 1.3, 16.0, 15.7)),
    (SweepSpec,
     [("n_values", REQUIRED), ("t_values", REQUIRED), ("lambda_values", REQUIRED),
      ("costs", REQUIRED), ("td_mode", "paper"), ("simulation", None)],
     ((80, 100), (6.0, 7.0), (14.0,), COSTS, "consistent", SimulationConfig(200))),
    (SweepRow,
     [("n", REQUIRED), ("t", REQUIRED), ("arrival_rate", REQUIRED), ("p_success", None),
      ("dispatch_time", None), ("q_star_real", None), ("q_star_integer", None),
      ("optimal_cost", None), ("sim_cost", None), ("sim_halfwidth", None), ("delta", None),
      ("error", None)],
     (100, 7.0, 14.0, 0.43, 15.9, 433.9, 434, 38.1, 38.4, 0.6, 0.3, "simulation: x")),
    (RunConfig,
     [("n_required", None), ("num_cycles", 20000), ("replications", 1), ("seed", 0),
      ("max_time", None), ("arrival_rate", None), ("dispatch_cost", None),
      ("transport_cost_per_unit", None), ("holding_rate", None), ("penalty_cost", None),
      ("reorder_cost", None), ("quantity", None), ("td_mode", "paper"), ("a_mode", "approx"),
      ("shortfall_rule", "reset_to_q"), ("duration_sampler", "dispatch"),
      ("format", "markdown"), ("n_values", None), ("t_values", None), ("lambda_values", None),
      ("include_simulation", False), ("path", None), ("costs", None), ("simulation", None),
      ("policy", None)],
     (100, 200, 2, 7, 7.0, 14.0, 40.0, 4.0, 0.02, 10.0, 300.0, 434.0, "consistent", "exact",
      "carry_shortfall", "erlang", "csv", (80, 100), (6.0, 7.0), (14.0,), True, "out.csv",
      COSTS, SimulationConfig(200, 7, "carry_shortfall", "erlang"), Policy(434.0))),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls,fields,args", RECORDS, ids=IDS)
class TestRecordSemantics:
    def test_fields_and_defaults(self, cls, fields, args):
        assert dataclasses.is_dataclass(cls)
        assert [(f.name, f.default) for f in dataclasses.fields(cls)] == fields

    def test_assignment_and_deletion_are_refused(self, cls, fields, args):
        obj = cls(*args)
        name = fields[0][0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, args[0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
        assert getattr(obj, name) == args[0]

    def test_positional_and_keyword_construction_agree(self, cls, fields, args):
        positional = cls(*args)
        keyword = cls(**{name: value for (name, _), value in zip(fields, args)})
        assert positional == keyword
        assert hash(positional) == hash(keyword)
        assert [getattr(positional, name) for name, _ in fields] == list(args)

    def test_defaults_fill_missing_arguments(self, cls, fields, args):
        required = [value for (_, default), value in zip(fields, args) if default is REQUIRED]
        obj = cls(*required)
        for name, default in fields[len(required):]:
            assert getattr(obj, name) == default

    def test_repr(self, cls, fields, args):
        text = ", ".join(f"{name}={value!r}" for (name, _), value in zip(fields, args))
        assert repr(cls(*args)) == f"{cls.__name__}({text})"

    def test_replace_and_pickle_round_trips(self, cls, fields, args):
        obj = cls(*args)
        assert dataclasses.replace(obj) == obj
        name = fields[0][0]
        assert dataclasses.replace(obj, **{name: args[0]}) == obj
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == obj and type(copy) is cls
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(copy, name, args[0])

    def test_dunder_replace_is_replace(self, cls, fields, args):
        # copy.replace, from Python 3.13 on, calls __replace__, as on a dataclass.
        obj = cls(*args)
        changes = {fields[0][0]: args[0] * 2}
        expected = replace(obj, **changes)
        assert expected != obj and type(expected) is cls
        assert obj.__replace__(**changes) == expected
        if hasattr(copy, "replace"):
            assert copy.replace(obj, **changes) == expected

    def test_hash_is_the_hash_of_the_field_tuple(self, cls, fields, args):
        obj = cls(*args)
        assert hash(obj) == hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))

    def test_equal_values_of_another_class_are_not_implemented(self, cls, fields, args):
        # A frozen dataclass of the same name and fields: dataclass's own ==,
        # hash and repr on the same values.
        twin = dataclasses.make_dataclass(cls.__name__, [name for name, _ in fields], frozen=True)
        obj, other = cls(*args), twin(*args)
        assert obj.__eq__(other) is NotImplemented
        assert obj != other
        assert (hash(obj), repr(obj)) == (hash(other), repr(other))

    def test_dataclass_params_are_frozen(self, cls, fields, args):
        assert type(cls(*args)).__dataclass_params__.frozen

    def test_frozen_errors_name_the_field(self, cls, fields, args):
        obj = cls(*args)
        name = fields[-1][0]
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(obj, name, args[-1])
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(obj, name)

    def test_missing_argument_is_type_error(self, cls, fields, args):
        names = [repr(name) for name, default in fields if default is REQUIRED]
        if not names:
            # RunConfig: every key may be left out, and then holds its default.
            assert cls() == cls(*(default for _, default in fields))
            return
        listed = names[0] if len(names) == 1 else (
            f"{', '.join(names[:-1])}{',' if len(names) > 2 else ''} and {names[-1]}"
        )
        plural = "s" if len(names) > 1 else ""
        message = (
            f"{cls.__name__}.__init__() missing {len(names)} required positional "
            f"argument{plural}: {listed}"
        )
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            cls()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: AuctionParams(100, math.nan, 14.0),
         "max_time must be > 0 (math.inf allowed), got nan"),
        (lambda: CostParams(40.0, 4.0, -0.02, 10.0, 300.0),
         "holding_rate must be finite and >= 0, got -0.02"),
        (lambda: Policy(math.inf), "quantity must be finite and > 0, got inf"),
        (lambda: SimulationConfig(200, seed=-1), "seed must satisfy 0 <= seed < 2**64, got -1"),
        (lambda: SweepSpec((100,), (), (14.0,), COSTS), "t_values must be non-empty"),
    ],
    ids=["AuctionParams", "CostParams", "Policy", "SimulationConfig", "SweepSpec"],
)
def test_post_init_checks_keep_their_messages(build, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "value", [0.0, -1.0, math.inf, math.nan, np.float64(-1.0)],
    ids=["zero", "negative", "inf", "nan", "numpy-negative"],
)
@pytest.mark.parametrize(
    "call,error,name",
    [
        (lambda value: AuctionParams(100, 7.0, value), ParameterError, "arrival_rate"),
        (lambda value: Policy(value), ParameterError, "quantity"),
        (lambda value: eoq_limit(COSTS, value), ParameterError, "arrival_rate"),
        (lambda value: regularized_lower_gamma(value, 1.0), DomainError, "shape s"),
    ],
    ids=["AuctionParams.arrival_rate", "Policy", "eoq_limit", "regularized_lower_gamma.s"],
)
def test_finite_and_positive_is_one_rule(call, error, name, value):
    message = f"{name} must be finite and > 0, got {value!r}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(value)


HUGE = 10**400
BASE = AuctionParams(100, 7.0, 14.0)


@pytest.mark.parametrize(
    "call,error,name,value",
    [
        (lambda: AuctionParams(100, 7.0, HUGE), ParameterError, "arrival_rate", HUGE),
        (lambda: AuctionParams(100, -HUGE, 14.0), ParameterError, "max_time", -HUGE),
        (lambda: Policy(HUGE), ParameterError, "quantity", HUGE),
        (lambda: dispatches_per_cycle(HUGE, 100), ParameterError, "quantity", HUGE),
        (lambda: CostParams(HUGE, 4.0, 0.02, 10.0, 300.0), ParameterError, "dispatch_cost", HUGE),
        (lambda: run_sweep(SweepSpec((100,), (7.0, HUGE), (14.0,), COSTS)), ParameterError,
         "t_values entry", HUGE),
        (lambda: run_sweep(SweepSpec((100,), (7.0,), (HUGE, 14.0), COSTS)), ParameterError,
         "lambda_values entry", HUGE),
        (lambda: eoq_limit(COSTS, HUGE), ParameterError, "arrival_rate", HUGE),
        (lambda: regularized_lower_gamma(HUGE, 1.0), DomainError, "shape s", HUGE),
        (lambda: regularized_lower_gamma(5.0, HUGE), DomainError, "argument x", HUGE),
        (lambda: erlang_pdf(HUGE, BASE), DomainError, "t", HUGE),
    ],
    ids=["AuctionParams.arrival_rate", "AuctionParams.max_time", "Policy", "dispatches_per_cycle",
         "CostParams", "run_sweep.t_values", "run_sweep.lambda_values", "eoq_limit",
         "regularized_lower_gamma.s", "regularized_lower_gamma.x", "erlang_pdf"],
)
def test_int_past_the_float_range_is_the_sites_own_error(call, error, name, value):
    message = f"{name} must be within the float range, got {int_text(value)}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# Run in a fresh interpreter, the tests directory its first argument and
# RECORDS' (class, arguments) pairs pickled on stdin: the closed-form entry
# points, then every record before and after the first read of its metadata.
STARTUP_GUARD = r'''
import contextlib, copy, io, pickle, sys
from groupbuy_inventory import CostParams, SweepSpec, emit_report, run_sweep
from groupbuy_inventory.cli import main

COSTS = ["--dispatch-cost", "40", "--transport-cost-per-unit", "4", "--holding-rate", "0.02",
         "--penalty-cost", "10", "--reorder-cost", "300"]
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["optimize", "--n-required", "100", "--max-time", "7", "--arrival-rate", "14",
                 *COSTS]) == 0
    assert main(["sweep", "--n-values", "80,100", "--t-values", "6,7", "--lambda-values", "14",
                 *COSTS]) == 0
emit_report(run_sweep(SweepSpec((80, 100), (6.0, 7.0), (14.0,), CostParams(40, 4, 0.02, 10, 300))),
            "json")
assert not {"dataclasses", "inspect"} & set(sys.modules), "dataclasses or inspect loaded"

CASES = pickle.loads(sys.stdin.buffer.read())
METHODS = ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__")


def behaviour(cls, args):
    obj = cls(*args)
    twin = cls(*args)
    assert obj == twin and hash(obj) == hash(twin) and obj.__eq__(args) is NotImplemented
    text = ", ".join(f"{name}={value!r}" for name, value in zip(cls.__match_args__, args))
    assert repr(obj) == f"{cls.__name__}({text})"
    for clone in (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj)):
        assert clone == obj and type(clone) is cls
    return obj, hash(obj), [vars(cls)[name] for name in METHODS]


def refusals(obj):
    name = type(obj).__match_args__[-1]
    for action, verb in ((lambda: setattr(obj, name, 0), "assign to"),
                         (lambda: delattr(obj, name), "delete")):
        try:
            action()
        except Exception as exc:
            assert type(exc).__name__ == "FrozenInstanceError", exc
            assert str(exc) == f"cannot {verb} field {name!r}", exc
        else:
            raise AssertionError(f"{verb} {name} was allowed")


before = [behaviour(cls, args) for cls, args in CASES]
assert not {"dataclasses", "inspect"} & set(sys.modules), "a record loaded dataclasses"
for obj, _, _ in before:
    refusals(obj)
for cls, _ in CASES:
    assert not isinstance(vars(cls)["__dataclass_fields__"], dict), "metadata read early"

import dataclasses
sys.path.insert(0, sys.argv[1])
from test_records import RECORDS
from groupbuy_inventory.runconfig import _PARSERS, RunConfig

for (cls, args), (obj, hashed, methods), (_, fields, _) in zip(CASES, before, RECORDS):
    assert dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen
    assert [(f.name, f.default) for f in dataclasses.fields(cls)] == fields
    # Every RunConfig field but the three records built from the keys is a key.
    keys = [name for name, _ in fields[:-3]] if cls is RunConfig else []
    assert [dict(f.metadata) for f in dataclasses.fields(cls)] == [
        {"parse": _PARSERS[name]} if name in keys else {} for name, _ in fields
    ]
    assert dataclasses.replace(obj) == obj
    assert dataclasses.asdict(obj) == dataclasses.asdict(cls(*args))
    after = behaviour(cls, args)
    assert after[0] == obj and after[1] == hashed and after[2] == methods
    refusals(after[0])
print("ok")
'''


def test_records_need_no_dataclasses_until_their_metadata_is_read():
    cases = pickle.dumps([(cls, args) for cls, _, args in RECORDS])
    result = subprocess.run(
        [sys.executable, "-c", STARTUP_GUARD, str(Path(__file__).parent)],
        input=cases, capture_output=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == b"ok\n"
