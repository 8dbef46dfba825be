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

The accounting runs per batch of dispatches, in numpy array operations:
the level only changes at dispatches, so a cycle's cost is a sum over
its dispatches of holding (level times the time since the previous
dispatch), the penalties of the failed windows before the dispatch and
the dispatch charge. Every sampler feeds it each dispatch's failed
windows F and closing window S. The "dispatch" sampler draws them, so
its work grows with dispatches; the per-window samplers draw every
window and regroup each batch into (F, S). For all samplers the clock
adds each F * max_time and then each S, and the event log is rebuilt
from (F, S).

The stock before each dispatch is a closed form of its index, so the
run's dispatch total D is known before the first draw. Every draw is
sized to it: with r = min(_DRAW_BATCH, D - dispatches so far), a
dispatch batch holds r dispatches and a per-window batch
ceil(min(_CHUNK_BUDGET, r / p_success)) windows, so one accounting pass
covers about r dispatches even at a small p_success. A run that writes an
event log caps its windows at _DRAW_BATCH instead, which bounds what one
log write holds. Under interarrival_sum the exponentials pass through one
reused buffer of _CHUNK_BUDGET, so the memory that draws hold does not
grow with n_required or the batch.

Determinism contract: results are a pure function of (auction, costs,
policy, config, stream). Random numbers come from
numpy.random.default_rng(SeedSequence(seed, spawn_key=(stream,))), and
the dispatch sampler draws each quantity from its own child of that
generator. Draws are made in batches, but the sequence of draws does not
depend on the batch size or on the size asked for, because numpy fills
uniform, exponential, gamma and beta draws sequentially; so repeated
runs consume identical draw sequences. A window of up to _CHUNK_BUDGET
exponentials is summed in one call; a longer window is summed in slices
of _CHUNK_BUDGET whose sums are added in order. Each cycle's cost is
summed over all its terms at once, wherever batches split it, so results
do not depend on the batch size either. Writing an event log does not
change the results.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Generator, Iterator, NamedTuple

from .costmodel import CostParams, Policy, dispatches_per_cycle
from .errors import ConfigError, NumericsError, check_int
from .settings import DurationSampler, SimulationConfig
from .stochastics import AuctionParams, _nondegenerate_success_pair

if TYPE_CHECKING:
    # numpy is imported only where a simulation runs, so the closed-form
    # paths (optimize, sweeps without simulation) never load it.
    import numpy as np

# Most dispatches per dispatch draw and per accounting pass, most windows
# per duration draw of a logged run, and half the windows per event-log
# write; a run asks only for what it still needs.
_DRAW_BATCH = 1 << 12
# Most windows per duration draw of an unlogged run (512 KiB of durations),
# and the exponentials in interarrival_sum's one buffer (512 KiB): whole
# runs took 8 to 17 ns per exponential used through it at n_required = 10
# to 1e5 (Intel Xeon, numpy 2.4); drawing a batch of 4096 windows as one
# array took 10 to 220 ns, and 6.4 MB at n_required = 195. At p_success =
# 0.01 to 0.06, 4096 windows hold only 40 to 250 dispatches, and an
# accounting pass per 4096 windows (about 35 numpy calls) cost about as
# much as the gamma draws.
_CHUNK_BUDGET = 1 << 16
# Most units of work one simulate call may do: bidding windows, exponentials
# under interarrival_sum, or dispatches on the dispatch sampler's table
# route. Minutes, not years: whole runs took about 15 ns per exponential
# (interarrival_sum), 80 to 110 ns per window (erlang) and 180 to 550 ns per
# dispatch (dispatch sampler), on the machine above.
_MAX_DRAWS = 10**9
# Units charged per replication stream for its fixed cost (its generator,
# result and report line): about 1 ms and 2 kB per stream, measured at
# 1e3 to 2e4 one-cycle streams, where a unit costs about 100 ns on the
# default sampler. The budget then admits 1e5 streams: minutes and a few
# hundred MB.
_STREAM_UNITS = 10_000
# The dispatch sampler draws the closing window by rejection from this
# success probability up, and by its inverse-CDF table below it. Rejection
# costs about 45/p ns per dispatch and the table 130 to 210 ns (measured at
# n_required = 10 to 1e4), so they cross near p = 0.3.
_TABLE_MAX_P = 0.25
# Longest table, 10 * sqrt(n_required) + 100 entries: n_required up to
# about 6.9e8. Beyond it the rejection route serves every p.
_MAX_TABLE = 1 << 18
# Two-sided 95% normal quantile.
_Z_95 = 1.959963984540054


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
    check_int("stream index", index, 0)
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _draw_durations(
    rng: np.random.Generator,
    sampler: DurationSampler,
    n_required: int,
    arrival_rate: float,
    size: int | None = None,
) -> Generator[np.ndarray, int | None, None]:
    """Every window's duration, in arrays of size windows (None: _DRAW_BATCH).

    A size sent to the generator is the size of the next array. Under
    interarrival_sum the exponentials pass through one buffer of
    _CHUNK_BUDGET: max(1, _CHUNK_BUDGET // n_required) windows at a time,
    and a longer window in slices of _CHUNK_BUDGET.
    """
    import numpy as np

    if sampler != "interarrival_sum":
        while True:
            batch = rng.gamma(float(n_required), 1.0 / arrival_rate, size or _DRAW_BATCH)
            size = yield batch
    rows = max(1, _CHUNK_BUDGET // n_required)
    width = min(n_required, _CHUNK_BUDGET)
    buffer = np.empty(rows * width)
    while True:
        batch = np.zeros(size or _DRAW_BATCH)
        for first in range(0, batch.size, rows):
            block = batch[first : first + rows]
            for start in range(0, n_required, width):
                draws = buffer[: block.size * min(width, n_required - start)]
                rng.standard_exponential(out=draws)
                # Slice sums add in draw order (0 + x is x).
                block += draws.reshape(block.size, -1).sum(axis=1)
        batch /= arrival_rate
        size = yield batch


def _regroup(
    rng: np.random.Generator,
    sampler: DurationSampler,
    auction: AuctionParams,
    p: float,
    total: int,
    logged: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every dispatch's failed windows F and closing window S, from _draw_durations.

    Yields one batch per duration batch that holds a dispatch. With r of
    the run's total dispatches still to come, a duration batch has
    ceil(min(cap, min(_DRAW_BATCH, r) / p)) windows, where cap is
    _DRAW_BATCH for a logged run and _CHUNK_BUDGET otherwise. The failed
    windows after a batch's last dispatch carry over into the next F.
    """
    import numpy as np

    cap = _DRAW_BATCH if logged else _CHUNK_BUDGET

    def windows() -> int:
        return math.ceil(min(cap, min(_DRAW_BATCH, total) / p))

    durations = _draw_durations(rng, sampler, auction.n_required, auction.arrival_rate, windows())
    duration = next(durations)
    carried = 0
    while True:
        dispatched = np.flatnonzero(duration < auction.max_time)
        if dispatched.size:
            # Float, as the dispatch sampler's F: int64 times an int max_time wraps.
            failures = np.diff(dispatched, prepend=-1.0 - carried) - 1.0
            carried = duration.size - 1 - int(dispatched[-1])
            total -= dispatched.size
            yield failures, duration[dispatched]
        else:
            carried += duration.size
        duration = durations.send(windows())


def _excess_table(auction: AuctionParams, p: float) -> np.ndarray | None:
    """Cumulative weights of N(T) - n_required given N(T) >= n_required.

    N(T) is the Poisson(rate * T) count of arrivals in a window. None
    selects the dispatch sampler's rejection route: from p = _TABLE_MAX_P
    up, or when the table would exceed _MAX_TABLE entries.
    """
    n = auction.n_required
    length = 10 * math.isqrt(n) + 100
    if p >= _TABLE_MAX_P or length > _MAX_TABLE:
        return None
    import numpy as np

    # log P(N = n + k) - log P(N = n) sums log(rate * T / (n + j)) over
    # j = 1..k. Below _TABLE_MAX_P, rate * T < n + 1, so the weights fall
    # from 1, and the last is under e^-56 (scanned for n_required = 1 to
    # 1e8): far below the 2**-53 resolution of the uniform that inverts them.
    steps = np.log(auction.arrival_rate * auction.max_time / np.arange(n + 1.0, n + length))
    return np.cumsum(np.exp(np.concatenate(([0.0], np.cumsum(steps)))))


def _draw_dispatches(
    rng: np.random.Generator,
    auction: AuctionParams,
    p: float,
    table: np.ndarray | None,
    total: float = math.inf,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every dispatch's failed windows F and closing window S, in batches.

    Yields arrays of at most _DRAW_BATCH dispatches, total in all (no end
    by default). F = Geometric(p) - 1 is the float
    floor(log U / log1p(-p)), so that no p overflows an integer (Devroye,
    Non-Uniform Random Variate Generation, 1986, X.2). S given S < T is
    T * Beta(n, m - n + 1), with m = N(T) given N(T) >= n drawn from the
    table, since given N(T) = m the arrival times are uniform order
    statistics (Ross, Stochastic Processes, 2.3); without a table it is
    the gamma draws below T, in draw order. F, the table's uniforms and
    the beta or gamma variates each have their own child stream, and
    accepted gamma draws carry over to the next batch, so the sequences do
    not depend on the batch size.
    """
    import numpy as np

    failure_rng, closing_rng, beta_rng = rng.spawn(3)
    n, max_time = auction.n_required, auction.max_time
    log_miss = math.log1p(-p) if p < 1.0 else -math.inf
    below_max = np.nextafter(max_time, 0.0)
    accepted = np.empty(0)
    while total > 0:
        size = min(_DRAW_BATCH, total)
        total -= size
        # log1p(-U) is log(1 - U), finite for U in [0, 1).
        failures = np.floor(np.log1p(-failure_rng.random(size)) / log_miss)
        if table is not None:
            excess = np.searchsorted(table, closing_rng.random(size) * table[-1], side="right")
            # T * Beta rounds to T itself now and then at a large n_required.
            closes = np.minimum(max_time * beta_rng.beta(n, excess + 1.0), below_max)
        else:
            while accepted.size < size:
                draws = closing_rng.gamma(float(n), 1.0 / auction.arrival_rate, size)
                accepted = np.concatenate((accepted, draws[draws < max_time]))
            closes, accepted = accepted[:size], accepted[size:]
        yield failures, closes


def _integer_sum(values: np.ndarray) -> int:
    """The exact sum of non-negative integer-valued floats."""
    total = float(values.sum())
    # Below 2**53 every partial sum is an integer that a float holds exactly.
    return int(total) if total < 2**53 else sum(map(int, values.tolist()))


def _write_windows(
    log: IO[str],
    first: int,
    marks: np.ndarray,
    failures: np.ndarray,
    closes: np.ndarray,
    level: np.ndarray,
    after: np.ndarray,
    max_time: float,
) -> None:
    """Write one JSON line per window of a batch, numbering auctions from first + 1.

    The windows are rebuilt from the batch's F, S, clock marks and levels
    before and after each dispatch, in chunks of up to two batches of
    windows, as a regrouped batch also holds the failed windows carried
    into it. The text of max_time and of each distinct level_after is
    formatted once per chunk. The bytes are those of json.dumps(record,
    separators=(",", ":")): both print finite numbers by their shortest repr.
    """
    import numpy as np

    closes_at = np.cumsum(failures.astype(np.int64) + 1) - 1
    # Float, as F is: an offset times an int max_time must not wrap in int64.
    opens_at = closes_at - failures
    failure = f'"duration":{max_time},"outcome":"failure",'
    windows = int(closes_at[-1]) + 1
    for chunk in range(0, windows, 2 * _DRAW_BATCH):
        # Window w belongs to the first dispatch that closes at or after it.
        window = np.arange(chunk, min(chunk + 2 * _DRAW_BATCH, windows))
        owner = np.searchsorted(closes_at, window)
        success = window == closes_at[owner]
        starts = marks[2 * owner] + (window - opens_at[owner]) * max_time
        level_after = np.where(success, after[owner], level[owner])
        values, which = np.unique(level_after, return_inverse=True)
        texts = [f'"level_after":{value}}}\n' for value in values.tolist()]
        log.write("".join(
            f'{{"auction":{index},"start":{start},"duration":{d},"outcome":"success",{texts[i]}'
            if ok
            else f'{{"auction":{index},"start":{start},{failure}{texts[i]}'
            for index, start, d, ok, i in zip(
                range(first + chunk + 1, first + chunk + window.size + 1),
                starts.tolist(),
                closes[owner].tolist(),
                success.tolist(),
                which.tolist(),
            )
        ))


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
    # Var(cost - ratio * length), from the residuals themselves: the
    # expanded var - 2 * ratio * cov + ratio**2 * var cancels to 0.0 when
    # the cost is nearly linear in the length, as at a tiny p_success.
    residuals = costs_arr - ratio * lengths_arr
    return math.sqrt(float(residuals.var(ddof=1)) / n) / float(lengths_arr.mean())


class _Plan(NamedTuple):
    """What one stream will do, found before it draws anything."""

    p: float  # success probability
    table: np.ndarray | None  # the dispatch sampler's table, if it takes that route
    per_cycle: int  # dispatches per cycle under reset_to_q
    dispatches: int  # the run's dispatch total D
    work: float  # the work estimate, in unit
    unit: str


def _plan(
    auction: AuctionParams, policy: Policy, config: SimulationConfig, logged: bool
) -> _Plan:
    """Check that one stream can run, and count its dispatches and work.

    The table is None for the other samplers and the rejection route; the
    work estimate and its unit are as simulate documents them.
    """
    if auction.unbounded:
        raise ConfigError("max_time: must be finite for simulation")
    quantity, n_required = policy.quantity, auction.n_required
    per_cycle = int(dispatches_per_cycle(quantity, n_required, "exact"))
    if config.shortfall_rule == "reset_to_q":
        dispatches = config.num_cycles * per_cycle
        formula = "cycles * ceil(quantity / n_required)"
    elif quantity < n_required:
        raise ConfigError(
            "carry_shortfall requires quantity >= n_required so the restart level stays positive"
        )
    else:
        # Cycle c closes at the first dispatch that brings the units
        # dispatched to c * Q or more, so the run ends at ceil(num_cycles *
        # Q / n), taken exactly from Q's integer ratio.
        numerator, denominator = quantity.as_integer_ratio()
        dispatches = -(-config.num_cycles * numerator // (denominator * n_required))
        formula = "ceil(cycles * quantity / n_required)"
    p = _nondegenerate_success_pair(auction)[0]
    sampler = config.duration_sampler
    table = _excess_table(auction, p) if sampler == "dispatch" else None
    if sampler == "interarrival_sum":
        work = dispatches * n_required / p
        unit = f"exponentials ({formula} * n_required / p_success)"
    elif table is not None and not logged:
        work = dispatches
        unit = f"dispatches ({formula})"
    else:
        work = dispatches / p
        unit = f"bidding windows ({formula} / p_success)"
    return _Plan(p, table, per_cycle, dispatches, work, unit)


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
    estimated work exceeds _MAX_DRAWS units. With D dispatches in the run,
    num_cycles * ceil(Q / n_required) under "reset_to_q" and
    ceil(num_cycles * Q / n_required) under "carry_shortfall", the
    estimate is D on the dispatch sampler's table route, D / p_success
    bidding windows under "erlang", on the rejection route and for any
    logged run, and D * n_required / p_success exponentials under
    "interarrival_sum". It also raises
    NumericsError when the clock overflows double precision; the clock is
    checked before a batch is logged, so the log never holds a non-finite
    time. Every sampler's draws are accounted as each dispatch's failed
    windows F and closing window S: dispatch k closes at (the previous
    dispatch + F * max_time) + S. When event_log is given (path or open
    text file), one JSON line is written per bidding window with keys
    auction, start, duration, outcome and level_after; level_after is the
    stock after any dispatch and replenishment triggered by that window.
    Per dispatch the log holds F failure lines, the i-th starting
    i * max_time after the previous dispatch, then the success line.
    """
    plan = _plan(auction, policy, config, event_log is not None)
    if plan.work > _MAX_DRAWS:
        raise NumericsError(
            f"simulation would draw about {plan.work:.3g} {plan.unit}, over the budget of "
            f"{_MAX_DRAWS:.0e}; use fewer cycles or a smaller quantity"
        )
    n_required = auction.n_required
    quantity = policy.quantity
    import numpy as np

    rng = rng_stream(config.seed, stream)
    max_time = auction.max_time
    dispatch_charge = costs.dispatch_cost + costs.unit_transport_cost * n_required

    # The stock before dispatch number m (counted from 0 over the run) is a
    # closed form of m; it is also the stock after dispatch m - 1. Below
    # 2**53 units every subtraction is exact, so the levels equal those of a
    # step-by-step replay bit for bit, and an int quantity keeps int levels.
    if config.shortfall_rule == "reset_to_q":
        def level_before(m: np.ndarray) -> np.ndarray:
            return quantity - (m % plan.per_cycle) * n_required

    else:
        def level_before(m: np.ndarray) -> np.ndarray:
            return quantity - np.fmod(m * n_required, quantity)

    # Per-batch arrays, joined at the end.
    cycle_costs: list[np.ndarray] = []
    cycle_lengths: list[np.ndarray] = []
    # Sums of the dispatch gaps less the first gap (which spares the variance
    # from cancellation) and of their squares: memory does not grow with them.
    gap_shift = None
    gap_sum = gap_square_sum = 0.0
    # Per-dispatch cost terms of the cycle still open after the last batch:
    # a cycle is summed over all its terms at once, so the sum does not
    # depend on where batches split it.
    open_terms: list[np.ndarray] = []
    auctions = dispatches = 0
    # Every batch ends at a dispatch, so the clock is the last dispatch's time.
    clock = cycle_start = 0.0
    cycles_left = config.num_cycles

    with contextlib.ExitStack() as stack:
        # The clock is checked for overflow below, not warned about per array.
        stack.enter_context(np.errstate(over="ignore"))
        if event_log is None or hasattr(event_log, "write"):
            log = event_log
        else:
            log = stack.enter_context(open(event_log, "w", encoding="utf-8"))
        if config.duration_sampler == "dispatch":
            draws = _draw_dispatches(rng, auction, plan.p, plan.table, plan.dispatches)
        else:
            draws = _regroup(
                rng, config.duration_sampler, auction, plan.p, plan.dispatches, log is not None
            )
        for failures, closes in draws:
            count = failures.size
            level = level_before(dispatches + np.arange(count))
            # Dispatch index of each cycle end.
            closing = np.flatnonzero(level <= n_required)
            if closing.size >= cycles_left:
                # The run ends with the dispatch that closes the last cycle.
                closing = closing[:cycles_left]
                count = int(closing[-1]) + 1
                level = level[:count]
                failures, closes = failures[:count], closes[:count]
            # The clock after each dispatch's failed windows, then after its
            # closing window, added in sequence.
            marks = np.empty(2 * count + 1)
            marks[0] = clock
            np.multiply(failures, max_time, out=marks[1::2])
            marks[2::2] = closes
            np.cumsum(marks, out=marks)
            times = marks[2::2]
            windows = count + _integer_sum(failures)
            if not math.isfinite(marks[-1]):
                # The windows up to that mark: F_0, 1, F_1, 1, ...
                counts = np.column_stack((failures, np.ones(count))).ravel()
                overflowed = int(np.cumsum(counts)[int(np.argmin(np.isfinite(marks))) - 1])
                raise NumericsError(
                    f"simulation clock overflowed at auction {auctions + overflowed}: "
                    f"{auction} has a time scale beyond double precision"
                )
            gaps = times - marks[:-1:2]
            terms = (
                costs.holding_rate * level * gaps
                + costs.failure_penalty * failures
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
            gap_shift = float(gaps[0]) if gap_shift is None else gap_shift
            shifted = gaps - gap_shift
            # Sequential sums, as the clock's: equal for every batch size.
            gap_sum = float(np.cumsum(np.append(gap_sum, shifted))[-1])
            gap_square_sum = float(np.cumsum(np.append(gap_square_sum, shifted**2))[-1])
            if log is not None:
                after = level_before(dispatches + 1 + np.arange(count))
                _write_windows(log, auctions, marks, failures, closes, level, after, max_time)
            auctions += windows
            dispatches += count
            clock = times[-1]
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
        gap_mean = gap_sum / dispatches
        gap_var = (gap_square_sum - gap_mean * gap_sum) / max(dispatches - 1, 1)
        mean_interval, interval_se = gap_shift + gap_mean, math.sqrt(max(gap_var, 0.0) / dispatches)
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
    the same regardless of how many replications were requested. The work
    budget covers all streams: NumericsError is raised before any stream
    draws when num_replications times simulate's per-stream estimate plus
    _STREAM_UNITS exceeds _MAX_DRAWS units.
    """
    check_int("num_replications", num_replications, 1)
    if num_replications > 1:
        plan = _plan(auction, policy, config, False)
        total = num_replications * (plan.work + _STREAM_UNITS)
        if total > _MAX_DRAWS:
            raise NumericsError(
                f"{num_replications} replications of about {plan.work:.3g} {plan.unit} each, plus "
                f"{_STREAM_UNITS} per stream for its fixed cost, {total:.3g} in all, are over "
                f"the budget of {_MAX_DRAWS:.0e}; "
                "use fewer replications, fewer cycles or a smaller quantity"
            )
    return [
        simulate(auction, costs, policy, config, stream=index)
        for index in range(num_replications)
    ]
