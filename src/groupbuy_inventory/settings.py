"""Settings that every command builds or parses: the simulation config and
the names of the samplers, shortfall rules and report formats.

Kept apart from the simulator and the sweep, so that a command which only
parses these settings (optimize, a sweep without simulation) loads neither.
"""

from __future__ import annotations

from typing import Literal, get_args

from .errors import ParameterError, check_choice, check_int, int_text, record

ShortfallRule = Literal["reset_to_q", "carry_shortfall"]
DurationSampler = Literal["erlang", "dispatch"]

SHORTFALL_RULES: tuple[str, ...] = get_args(ShortfallRule)
DURATION_SAMPLERS: tuple[str, ...] = get_args(DurationSampler)
REPORT_FORMATS: tuple[str, ...] = ("csv", "json", "markdown")

_MAX_SEED = 2**64


@record
class SimulationConfig:
    """Run-length, seeding and behavioural switches for one simulation.

    num_cycles: replenishment cycles to complete (the run length).
    seed: root seed; each replication stream is derived from it.
    shortfall_rule: what happens when the final dispatch of a cycle
        oversells the remaining stock. "reset_to_q" restarts the next
        cycle at the full policy quantity (backorders absorbed by the
        replenishment); "carry_shortfall" subtracts the oversold units
        from the next cycle's starting stock and requires
        quantity >= n_required so the restart level stays positive.
    duration_sampler: "erlang" draws every window's length in one gamma
        variate and regroups the windows into each dispatch's failed
        windows F and closing window S. "dispatch" (the default) reads a
        table where one exists: below a success probability of 0.25 (and
        for n_required up to about 6.9e8) it draws per dispatch, F =
        Geometric(p) - 1 and S given S < T from an inverse-CDF table of
        the arrivals N(T) given N(T) >= n_required and a beta variate, so
        its work grows with dispatches, not windows. Everywhere else it
        makes erlang's draws. Both share one accounting path and one clock
        rule. Writing an event log changes no draw of either sampler.
        simulate documents the work each of them is charged.
    """

    num_cycles: int
    seed: int = 0
    shortfall_rule: ShortfallRule = "reset_to_q"
    duration_sampler: DurationSampler = "dispatch"

    def __post_init__(self) -> None:
        check_int("num_cycles", self.num_cycles, 1)
        check_int("seed", self.seed)
        if not 0 <= self.seed < _MAX_SEED:
            raise ParameterError(f"seed must satisfy 0 <= seed < 2**64, got {int_text(self.seed)}")
        check_choice("shortfall_rule", self.shortfall_rule, SHORTFALL_RULES)
        check_choice("duration_sampler", self.duration_sampler, DURATION_SAMPLERS)
