"""Discrete-event Monte Carlo cross-check of the closed-form cost model.

The simulator replays the system one bidding window at a time: a window
either closes with a full batch before max_time (dispatch n_required
units, charge the dispatch and transport costs) or runs the full window
length (charge the failure penalty). Holding cost accrues on the current
inventory level for the duration of every window. When a dispatch drains
the level to or below zero the cycle ends, the reorder cost is charged
and the level returns to the policy quantity. The long-run cost rate is
estimated as total cycle cost over total cycle time, with a delta-method
confidence interval for that ratio.

Determinism contract: results are a pure function of (auction, costs,
policy, config, stream). Random numbers come from
numpy.random.default_rng(SeedSequence(seed, spawn_key=(stream,))). Window
durations are drawn in batches, but the sequence of durations does not
depend on the batch size, because numpy fills exponential and gamma draws
sequentially; so repeated runs consume identical draw sequences.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Literal

from .costmodel import CostParams, Policy
from .errors import ConfigError, ParameterError
from .stochastics import AuctionParams, _nondegenerate_success_probability

if TYPE_CHECKING:
    # numpy is imported only where a simulation runs, so the closed-form
    # paths (optimize, sweeps without simulation) never load it.
    import numpy as np

ShortfallRule = Literal["reset_to_q", "carry_shortfall"]
DurationSampler = Literal["interarrival_sum", "erlang"]

SHORTFALL_RULES: tuple[str, ...] = ("reset_to_q", "carry_shortfall")
DURATION_SAMPLERS: tuple[str, ...] = ("interarrival_sum", "erlang")

_MAX_SEED = 2**64
# Windows per duration draw, and exponentials per interarrival_sum draw:
# a batch costs little memory and little unused work when a run is short.
_DRAW_BATCH = 1 << 12
_CHUNK_BUDGET = 1 << 21
# Two-sided 95% normal quantile.
_Z_95 = 1.959963984540054


@dataclass(frozen=True)
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
    duration_sampler: "interarrival_sum" draws n_required exponential
        gaps per window and sums them; "erlang" draws the window length
        in one gamma variate. Statistically identical, different draw
        streams.
    """

    num_cycles: int
    seed: int = 0
    shortfall_rule: ShortfallRule = "reset_to_q"
    duration_sampler: DurationSampler = "interarrival_sum"

    def __post_init__(self) -> None:
        if isinstance(self.num_cycles, bool) or not isinstance(self.num_cycles, int):
            raise ParameterError("num_cycles must be an integer")
        if self.num_cycles < 1:
            raise ParameterError(f"num_cycles must be >= 1, got {self.num_cycles}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ParameterError("seed must be an integer")
        if not 0 <= self.seed < _MAX_SEED:
            raise ParameterError(f"seed must satisfy 0 <= seed < 2**64, got {self.seed}")
        if self.shortfall_rule not in SHORTFALL_RULES:
            raise ParameterError(
                f"shortfall_rule must be one of {SHORTFALL_RULES}, got {self.shortfall_rule!r}"
            )
        if self.duration_sampler not in DURATION_SAMPLERS:
            raise ParameterError(
                f"duration_sampler must be one of {DURATION_SAMPLERS}, got {self.duration_sampler!r}"
            )


@dataclass(frozen=True)
class SimulationCounts:
    """Event tallies: failures + dispatches == auctions, cycles == num_cycles."""

    auctions: int
    failures: int
    dispatches: int
    cycles: int


@dataclass(frozen=True)
class SimulationResult:
    """Point estimates with standard errors from one simulation stream.

    Standard-error fields are 0.0 when fewer than two observations exist.
    long_run_cost equals total_cost / total_time exactly (same division),
    long_run_cost_se is the delta-method standard error of that ratio
    estimator and long_run_cost_halfwidth is the 95% half-width, that
    standard error times the two-sided 95% normal quantile.
    """

    p_hat: float
    p_hat_se: float
    mean_dispatch_interval: float
    mean_dispatch_interval_se: float
    mean_cycle_length: float
    mean_cycle_length_se: float
    mean_cycle_cost: float
    mean_cycle_cost_se: float
    total_cost: float
    total_time: float
    long_run_cost: float
    long_run_cost_se: float
    long_run_cost_halfwidth: float
    counts: SimulationCounts


def rng_stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator number ``index`` derived from a root seed.

    Uses numpy.random.SeedSequence(seed, spawn_key=(index,)), so streams
    for different indices never overlap and the derivation is stable.
    """
    if index < 0:
        raise ParameterError(f"stream index must be >= 0, got {index}")
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _draw_durations(
    rng: np.random.Generator, sampler: DurationSampler, n_required: int, arrival_rate: float
) -> Iterator[float]:
    """Every window's duration, drawn at most _DRAW_BATCH windows per batch."""
    if sampler == "interarrival_sum":
        windows = max(1, min(_DRAW_BATCH, _CHUNK_BUDGET // n_required))

        def draw() -> list[float]:
            gaps = rng.standard_exponential((windows, n_required))
            return (gaps.sum(axis=1) / arrival_rate).tolist()

    else:

        def draw() -> list[float]:
            shape, scale = float(n_required), 1.0 / arrival_rate
            return rng.gamma(shape=shape, scale=scale, size=_DRAW_BATCH).tolist()

    # chain.from_iterable adds no per-window cost; a `yield from` generator does.
    return itertools.chain.from_iterable(iter(draw, None))


def _mean_se(values: "np.ndarray") -> tuple[float, float]:
    n = values.size
    mean = float(values.mean()) if n else 0.0
    if n < 2:
        return mean, 0.0
    return mean, float(values.std(ddof=1) / math.sqrt(n))


def _ratio_se(costs_arr: "np.ndarray", lengths_arr: "np.ndarray", ratio: float) -> float:
    n = costs_arr.size
    if n < 2:
        return 0.0
    mean_len = float(lengths_arr.mean())
    var_cost = float(costs_arr.var(ddof=1))
    var_len = float(lengths_arr.var(ddof=1))
    cov = float(((costs_arr - costs_arr.mean()) * (lengths_arr - mean_len)).sum() / (n - 1))
    var_ratio = (var_cost - 2.0 * ratio * cov + ratio * ratio * var_len) / (n * mean_len * mean_len)
    return math.sqrt(max(var_ratio, 0.0))


def simulate(
    auction: AuctionParams,
    costs: CostParams,
    policy: Policy,
    config: SimulationConfig,
    *,
    stream: int = 0,
    event_log: str | Path | IO[str] | None = None,
) -> SimulationResult:
    """Simulate ``config.num_cycles`` replenishment cycles on one stream.

    Requires a finite bidding window (an unbounded window never fails and
    needs no simulation) and, under "carry_shortfall", a policy quantity
    of at least n_required. Raises DegenerateAuctionError before drawing
    anything when the success probability underflows, as such a run would
    never end. When event_log is given (path or open text
    file), one JSON line is written per bidding window with keys
    auction, start, duration, outcome and level_after; level_after is the
    stock after any dispatch and replenishment triggered by that window.
    """
    if auction.unbounded:
        raise ConfigError("simulation requires a finite max_time")
    if config.shortfall_rule == "carry_shortfall" and policy.quantity < auction.n_required:
        raise ConfigError(
            "carry_shortfall requires quantity >= n_required so the restart level stays positive"
        )
    _nondegenerate_success_probability(auction)
    import numpy as np

    rng = rng_stream(config.seed, stream)
    n_required = auction.n_required
    max_time = auction.max_time
    dispatch_charge = costs.dispatch_cost + costs.unit_transport_cost * n_required
    reset = config.shortfall_rule == "reset_to_q"

    cycle_costs: list[float] = []
    cycle_lengths: list[float] = []
    intervals: list[float] = []
    auctions = 0
    dispatches = 0
    clock = 0.0
    last_dispatch = 0.0
    cycle_start = 0.0
    cycle_cost = 0.0
    level = policy.quantity
    cycles_left = config.num_cycles

    with contextlib.ExitStack() as stack:
        if event_log is None or hasattr(event_log, "write"):
            log = event_log
        else:
            log = stack.enter_context(open(event_log, "w", encoding="utf-8"))
        durations = _draw_durations(rng, config.duration_sampler, n_required, auction.arrival_rate)
        for duration in durations:
            auctions += 1
            success = duration < max_time
            window = duration if success else max_time
            start = clock
            clock += window
            cycle_cost += costs.holding_rate * level * window + (
                dispatch_charge if success else costs.failure_penalty
            )
            if success:
                dispatches += 1
                intervals.append(clock - last_dispatch)
                last_dispatch = clock
                remaining = level - n_required
                if remaining <= 0.0:
                    cycle_cost += costs.reorder_cost
                    cycle_costs.append(cycle_cost)
                    cycle_lengths.append(clock - cycle_start)
                    level = policy.quantity if reset else policy.quantity + remaining
                    cycle_start = clock
                    cycle_cost = 0.0
                    cycles_left -= 1
                else:
                    level = remaining
            if log is not None:
                # The bytes json.dumps(record, separators=(",", ":")) gives:
                # both print finite numbers by their shortest repr.
                log.write(
                    f'{{"auction":{auctions},"start":{start},"duration":{window},'
                    f'"outcome":"{"success" if success else "failure"}","level_after":{level}}}\n'
                )
            if not cycles_left:
                break

    costs_arr = np.asarray(cycle_costs)
    lengths_arr = np.asarray(cycle_lengths)
    intervals_arr = np.asarray(intervals)
    total_cost = math.fsum(cycle_costs)
    total_time = math.fsum(cycle_lengths)
    long_run = total_cost / total_time
    p_hat = dispatches / auctions
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / auctions) if auctions > 1 else 0.0
    mean_interval, interval_se = _mean_se(intervals_arr)
    mean_length, length_se = _mean_se(lengths_arr)
    mean_cost, cost_se = _mean_se(costs_arr)
    long_run_se = _ratio_se(costs_arr, lengths_arr, long_run)
    return SimulationResult(
        p_hat=p_hat,
        p_hat_se=p_se,
        mean_dispatch_interval=mean_interval,
        mean_dispatch_interval_se=interval_se,
        mean_cycle_length=mean_length,
        mean_cycle_length_se=length_se,
        mean_cycle_cost=mean_cost,
        mean_cycle_cost_se=cost_se,
        total_cost=total_cost,
        total_time=total_time,
        long_run_cost=long_run,
        long_run_cost_se=long_run_se,
        long_run_cost_halfwidth=_Z_95 * long_run_se,
        counts=SimulationCounts(
            auctions=auctions,
            failures=auctions - dispatches,
            dispatches=dispatches,
            cycles=len(cycle_costs),
        ),
    )


def replicate(
    auction: AuctionParams,
    costs: CostParams,
    policy: Policy,
    config: SimulationConfig,
    num_replications: int,
) -> list[SimulationResult]:
    """Run independent replications on streams 0 .. num_replications - 1.

    Replication r always uses stream index r, so any prefix of the list is
    the same regardless of how many replications were requested.
    """
    if isinstance(num_replications, bool) or not isinstance(num_replications, int):
        raise ParameterError("num_replications must be an integer")
    if num_replications < 1:
        raise ParameterError(f"num_replications must be >= 1, got {num_replications}")
    return [
        simulate(auction, costs, policy, config, stream=index)
        for index in range(num_replications)
    ]
