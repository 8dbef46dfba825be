"""Discrete-event Monte Carlo cross-check of the closed-form cost model.

The simulated system runs one bidding window after another: a window
either closes with a full batch before max_time (dispatch n_required
units, charge the dispatch and transport costs) or runs the full window
length (charge the failure penalty). Holding cost accrues on the current
inventory level the whole time. When a dispatch drains the level to or
below zero the cycle ends, the reorder cost is charged and the level
returns to the policy quantity. The long-run cost rate is estimated as
total cycle cost over total cycle time (the regenerative ratio
estimator), with a delta-method confidence interval for that ratio.

The accounting runs per batch of drawn windows, in numpy array
operations: the level only changes at dispatches, so a cycle's cost is
a sum over its dispatches of holding (level times the time since the
previous dispatch), the penalties of the failed windows before the
dispatch and the dispatch charge.

Determinism contract: results are a pure function of (auction, costs,
policy, config, stream). Random numbers come from
numpy.random.default_rng(SeedSequence(seed, spawn_key=(stream,))). Window
durations are drawn in batches, but the sequence of durations does not
depend on the batch size, because numpy fills exponential and gamma draws
sequentially; so repeated runs consume identical draw sequences. Each
cycle's cost is summed over all its terms at once, wherever batches
split it, so results do not depend on the batch size either.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterator, Literal

from .costmodel import CostParams, Policy, dispatches_per_cycle
from .errors import ConfigError, NumericsError, ParameterError, check_choice
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
# Windows per duration draw, and exponentials per interarrival_sum draw (a
# longer window is drawn in slices): a batch costs little memory and little
# unused work when a run is short.
_DRAW_BATCH = 1 << 12
_CHUNK_BUDGET = 1 << 21
# Most bidding windows one simulate call may draw: minutes, not years, at
# the measured 0.5 us (erlang) to 1.6 us (interarrival_sum) per window.
_MAX_WINDOWS = 10**9
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
        check_choice("shortfall_rule", self.shortfall_rule, SHORTFALL_RULES)
        check_choice("duration_sampler", self.duration_sampler, DURATION_SAMPLERS)


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
) -> Iterator[np.ndarray]:
    """Every window's duration, in arrays of at most _DRAW_BATCH windows."""
    if sampler == "interarrival_sum":
        width = min(n_required, _CHUNK_BUDGET)
        windows = max(1, min(_DRAW_BATCH, _CHUNK_BUDGET // n_required))
        while True:
            # Slice sums add in draw order (0 + x is x). A batch held in a local
            # across the yield raised a base-case simulate's peak RSS by 3 MB.
            yield sum(
                rng.standard_exponential((windows, min(width, n_required - start))).sum(axis=1)
                for start in range(0, n_required, width)
            ) / arrival_rate
    else:
        shape, scale = float(n_required), 1.0 / arrival_rate
        while True:
            yield rng.gamma(shape=shape, scale=scale, size=_DRAW_BATCH)


def _fsum(values: "np.ndarray") -> float:
    try:
        return math.fsum(values.tolist())
    except OverflowError:  # finite terms whose sum overflows
        return math.inf


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
    never end; NumericsError, also before drawing anything, when the
    estimated window count num_cycles * ceil(Q / n_required) / p_success
    exceeds _MAX_WINDOWS; and NumericsError when the clock overflows double
    precision; the clock is checked before a batch is logged, so the log
    never holds a non-finite time. When event_log is given (path or open
    text file), one JSON line is written per bidding window with keys
    auction, start, duration, outcome and level_after; level_after is the
    stock after any dispatch and replenishment triggered by that window.
    """
    if auction.unbounded:
        raise ConfigError("simulation requires a finite max_time")
    if config.shortfall_rule == "carry_shortfall" and policy.quantity < auction.n_required:
        raise ConfigError(
            "carry_shortfall requires quantity >= n_required so the restart level stays positive"
        )
    n_required = auction.n_required
    quantity = policy.quantity
    batches = dispatches_per_cycle(quantity, n_required, "exact")
    windows = config.num_cycles * batches / _nondegenerate_success_probability(auction)
    if windows > _MAX_WINDOWS:
        raise NumericsError(
            f"simulation would draw about {windows:.3g} bidding windows "
            f"(cycles * ceil(quantity / n_required) / p_success), over the budget of "
            f"{_MAX_WINDOWS:.0e}; use fewer cycles or a smaller quantity"
        )
    import numpy as np

    rng = rng_stream(config.seed, stream)
    max_time = auction.max_time
    dispatch_charge = costs.dispatch_cost + costs.unit_transport_cost * n_required

    # The stock before dispatch number m (counted from 0 over the run) is a
    # closed form of m; it is also the stock after dispatch m - 1. Below
    # 2**53 units every subtraction is exact, so the levels equal those of a
    # step-by-step replay bit for bit, and an int quantity keeps int levels.
    if config.shortfall_rule == "reset_to_q":
        per_cycle = int(batches)

        def level_before(m: np.ndarray) -> np.ndarray:
            return quantity - (m % per_cycle) * n_required

    else:

        def level_before(m: np.ndarray) -> np.ndarray:
            return quantity - np.fmod(m * n_required, quantity)

    # Per-batch arrays, joined at the end.
    cycle_costs: list[np.ndarray] = []
    cycle_lengths: list[np.ndarray] = []
    intervals: list[np.ndarray] = []
    # Per-dispatch cost terms of the cycle still open after the last batch:
    # a cycle is summed over all its terms at once, so the sum does not
    # depend on where batches split it.
    open_terms: list[np.ndarray] = []
    auctions = 0
    dispatches = 0
    failures_pending = 0
    clock = 0.0
    last_dispatch = 0.0
    cycle_start = 0.0
    cycles_left = config.num_cycles

    with contextlib.ExitStack() as stack:
        # The clock is checked for overflow below, not warned about per array.
        stack.enter_context(np.errstate(over="ignore"))
        if event_log is None or hasattr(event_log, "write"):
            log = event_log
        else:
            log = stack.enter_context(open(event_log, "w", encoding="utf-8"))
        durations = _draw_durations(rng, config.duration_sampler, n_required, auction.arrival_rate)
        for duration in durations:
            success = duration < max_time
            # Window index of each dispatch, and dispatch index of each cycle end.
            dispatched = np.flatnonzero(success)
            level = level_before(dispatches + np.arange(dispatched.size))
            closing = np.flatnonzero(level <= n_required)
            if closing.size >= cycles_left:
                # The run ends with the dispatch that closes the last cycle.
                closing = closing[:cycles_left]
                dispatched, level = dispatched[: closing[-1] + 1], level[: closing[-1] + 1]
                duration, success = duration[: dispatched[-1] + 1], success[: dispatched[-1] + 1]
            window = np.minimum(duration, max_time)
            # A cumulative sum adds in sequence, exactly as `clock += window`.
            starts = np.cumsum(np.concatenate(([clock], window)))
            if not math.isfinite(starts[-1]):
                overflowed_at = auctions + int(np.argmin(np.isfinite(starts)))
                raise NumericsError(
                    f"simulation clock overflowed at auction {overflowed_at}: "
                    f"{auction} has a time scale beyond double precision"
                )
            times = starts[dispatched + 1]
            gaps = np.diff(times, prepend=last_dispatch)
            failures_before = np.diff(dispatched, prepend=-1 - failures_pending) - 1
            terms = (
                costs.holding_rate * level * gaps
                + costs.failure_penalty * failures_before
                + dispatch_charge
            )
            if closing.size:
                closed = closing[-1] + 1
                cycle_terms = np.concatenate([*open_terms, terms[:closed]])
                first = np.concatenate(([0], closing[:-1] + 1 + cycle_terms.size - closed))
                cycle_costs.append(np.add.reduceat(cycle_terms, first) + costs.reorder_cost)
                open_terms = [terms[closed:]]
                cycle_ends = times[closing]
                cycle_lengths.append(np.diff(cycle_ends, prepend=cycle_start))
                cycle_start = cycle_ends[-1]
            else:
                open_terms.append(terms)
            intervals.append(gaps)
            if log is not None:
                level_after = level_before(dispatches + np.cumsum(success))
                # The bytes json.dumps(record, separators=(",", ":")) gives:
                # both print finite numbers by their shortest repr.
                log.write("".join(
                    f'{{"auction":{index},"start":{start},"duration":'
                    f'{d if ok else max_time},"outcome":"{"success" if ok else "failure"}",'
                    f'"level_after":{after}}}\n'
                    for index, start, d, ok, after in zip(
                        range(auctions + 1, auctions + window.size + 1),
                        starts[:-1].tolist(),
                        duration.tolist(),
                        success.tolist(),
                        level_after.tolist(),
                    )
                ))
            auctions += window.size
            dispatches += dispatched.size
            if dispatched.size:
                failures_pending = window.size - 1 - dispatched[-1]
                last_dispatch = times[-1]
            else:
                failures_pending += window.size
            clock = starts[-1]
            cycles_left -= closing.size
            if not cycles_left:
                break

    costs_arr = np.concatenate(cycle_costs)
    lengths_arr = np.concatenate(cycle_lengths)
    total_cost = _fsum(costs_arr)
    total_time = _fsum(lengths_arr)
    long_run = total_cost / total_time
    p_hat = dispatches / auctions
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / auctions) if auctions > 1 else 0.0
    # Estimates that overflow are checked below, not warned about per array.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_interval, interval_se = _mean_se(np.concatenate(intervals))
        mean_length, length_se = _mean_se(lengths_arr)
        mean_cost, cost_se = _mean_se(costs_arr)
        long_run_se = _ratio_se(costs_arr, lengths_arr, long_run)
    result = SimulationResult(
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
            cycles=costs_arr.size,
        ),
    )
    for name, value in vars(result).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericsError(f"simulated {name} is not finite: {value!r}")
    return result


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
