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
the dispatch charge. One of two routes, which _plan picks once per run,
feeds it each dispatch's failed windows F and closing window S. The
table route draws them per dispatch, so its work grows with dispatches;
the window route draws every window and regroups each batch into (F, S).
The "dispatch" sampler reads the table where one exists and erlang's
windows everywhere else; the "erlang" sampler always reads the windows.
On both routes the clock adds each F * max_time and then each S, and the
event log is rebuilt from (F, S).

The stock before each dispatch is a closed form of its index, so the
run's dispatch total D is known before the first draw. Every draw is
sized to it: with r = min(_DRAW_BATCH, D - dispatches so far), a
table batch holds r dispatches and a window batch
ceil(min(_CHUNK_BUDGET, r / p_success)) windows, so one accounting pass
covers about r dispatches even at a small p_success. Writing an event log
changes no draw size: the log is written in chunks of at most
2 * _DRAW_BATCH windows, whatever the batch holds.

Determinism contract: results are a pure function of (auction, costs,
policy, config, stream). Random numbers come from
numpy.random.default_rng(SeedSequence(seed, spawn_key=(stream,))). The
window route draws from that generator, and the table route draws each
quantity from its own child of it. Draws are made in batches, but the
sequence of draws does not depend on the batch size or on the size
asked for, because numpy fills uniform, gamma and beta draws
sequentially; so repeated runs consume identical draw sequences. Each
cycle's cost is summed over all its terms at once, wherever batches
split it, so results do not depend on the batch size either. Writing an
event log does not change the results.

The cross-check itself, _analytic_comparison, sets each estimate beside
its closed-form value in standard errors: simulate's report prints it and
validate judges it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable, Iterator, NamedTuple

from .costmodel import A_MODES, CostParams, Policy, _ceil_batches, _finite, long_run_average_cost
from .errors import ConfigError, NumericsError, check_int, int_text, record
from .settings import SimulationConfig
from .stochastics import (TD_MODES, AuctionParams, AuctionStatistics,
                          _nondegenerate_success_pair, select_dispatch_time)

if TYPE_CHECKING:
    # numpy is imported only in the functions that draw, so a simulate or
    # validate run refused before its first draw exits without loading it.
    import numpy as np

# Most dispatches per dispatch draw and per accounting pass, and half the
# windows per event-log write; a run asks only for what it still needs.
_DRAW_BATCH = 1 << 12
# Most windows per duration draw (512 KiB of durations), logged or not, and
# most values per list that _fsum builds. At p_success = 0.01 to 0.06,
# 4096 windows hold only 40 to 250 dispatches, and an accounting pass per
# 4096 windows (about 35 numpy calls) cost about as much as the gamma draws
# (Intel Xeon, numpy 2.4).
_CHUNK_BUDGET = 1 << 16
# Most units of work one simulate call may do: bidding windows, or
# dispatches on the dispatch sampler's table route. Minutes, not years:
# whole runs took 80 to 110 ns per window (window route) and 180 to 550
# ns per dispatch (table route), on the machine above.
_MAX_DRAWS = 10**9
# Units charged per stream, when replications or sweep cells run several, for
# its fixed cost (its generator, result and report line): about 1 ms and 2 kB
# per stream, measured at 1e3 to 2e4 one-cycle streams, where a unit costs
# about 100 ns on the default sampler. The budget then admits 1e5 streams:
# minutes and a few hundred MB.
_STREAM_UNITS = 10_000
# Most cycles one stream may run: a stream keeps each cycle's cost and
# length to the end, and its peak memory grew by about _CYCLE_BYTES per
# cycle (two floats in arrays, copied into one array each at the end; peak RSS
# at 1e6 and 3e6 one-dispatch cycles of (120, 6), Q = 9, on the machine above),
# so 1e7 cycles are about 0.5 GB, whatever the work budget admits.
_MAX_CYCLES = 10**7
_CYCLE_BYTES = 48
# The dispatch sampler reads its inverse-CDF table below this success
# probability, and erlang's windows from it up. Drawing one dispatch's
# windows cost 22/p to 38/p ns and the table 90 to 140 ns (draws alone, at
# n_required = 10 to 1e4 and p = 0.05 to 0.5), so they cross near p = 0.25.
_TABLE_MAX_P = 0.25
# Longest table, 10 * sqrt(n_required) + 100 entries: n_required up to
# about 6.9e8. Beyond it erlang's windows serve every p.
_MAX_TABLE = 1 << 18
# Two-sided 95% normal quantile.
_Z_95 = 1.959963984540054


@record
class SimulationCounts:
    """Event tallies: failures + dispatches == auctions, cycles == num_cycles."""

    auctions: int
    failures: int
    dispatches: int
    cycles: int


@record
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


def _regroup(
    rng: np.random.Generator, auction: AuctionParams, p: float, total: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every dispatch's failed windows F and closing window S, from erlang windows.

    Each window's duration is one gamma variate of shape n_required and
    rate arrival_rate. Until total dispatches are drawn, yields one batch
    per window batch that holds a dispatch: with r of them to come,
    ceil(min(_CHUNK_BUDGET, min(_DRAW_BATCH, r) / p)) windows. The failed
    windows after a batch's last dispatch carry over into the next F.
    """
    import numpy as np

    shape, scale = float(auction.n_required), 1.0 / auction.arrival_rate
    carried = 0
    while total > 0:
        duration = rng.gamma(shape, scale, math.ceil(min(_CHUNK_BUDGET, min(_DRAW_BATCH, total) / p)))
        dispatched = np.flatnonzero(duration < auction.max_time)
        if dispatched.size:
            # Float, as the table route's F: int64 times an int max_time wraps.
            failures = np.diff(dispatched, prepend=-1.0 - carried) - 1.0
            carried = duration.size - 1 - int(dispatched[-1])
            total -= dispatched.size
            yield failures, duration[dispatched]
        else:
            carried += duration.size


def _table_length(auction: AuctionParams, p: float) -> int:
    """The dispatch sampler's table length, or 0 where it takes the window route."""
    length = 10 * math.isqrt(auction.n_required) + 100
    return length if p < _TABLE_MAX_P and length <= _MAX_TABLE else 0


@functools.lru_cache(maxsize=1)
def _excess_table(auction: AuctionParams, p: float) -> np.ndarray:
    """Cumulative weights of N(T) - n_required given N(T) >= n_required.

    N(T) is the Poisson(rate * T) count of arrivals in a window. Its one
    caller is _draw_dispatches, so a table is built only on the table
    route, which _plan picks, as a stream starts to draw. The last table is
    kept, read-only: replicate's streams share it, and a sweep holds one
    table at a time.
    """
    import numpy as np

    n, length = auction.n_required, _table_length(auction, p)
    # log P(N = n + k) - log P(N = n) sums log(rate * T / (n + j)) over
    # j = 1..k. Below _TABLE_MAX_P, rate * T < n + 1, so the weights fall
    # from 1, and the last is under e^-56 (scanned for n_required = 1 to
    # 1e8): far below the 2**-53 resolution of the uniform that inverts them.
    steps = np.log(auction.arrival_rate * auction.max_time / np.arange(n + 1.0, n + length))
    table = np.cumsum(np.exp(np.concatenate(([0.0], np.cumsum(steps)))))
    table.flags.writeable = False
    return table


def _draw_dispatches(
    rng: np.random.Generator, auction: AuctionParams, p: float, total: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every dispatch's failed windows F and closing window S on the table route.

    Yields arrays of at most _DRAW_BATCH dispatches, total in all. It reads
    _excess_table(auction, p) when the first batch is drawn, so a run that
    is refused before drawing builds no table. F = Geometric(p) - 1 is the
    float floor(log U / log1p(-p)), so that no p overflows an integer
    (Devroye, Non-Uniform Random Variate Generation, 1986, X.2). S given
    S < T is T * Beta(n, m - n + 1), with m = N(T) given N(T) >= n drawn
    from the table, since given N(T) = m the arrival times are uniform
    order statistics (Ross, Stochastic Processes, 2.3). F, the table's
    uniforms and the beta variates each have their own child stream, so
    the sequences do not depend on the batch size.
    """
    import numpy as np

    table = _excess_table(auction, p)
    failure_rng, closing_rng, beta_rng = rng.spawn(3)
    n, max_time = auction.n_required, auction.max_time
    log_miss = math.log1p(-p) if p < 1.0 else -math.inf
    below_max = np.nextafter(max_time, 0.0)
    while total > 0:
        size = min(_DRAW_BATCH, total)
        total -= size
        # log1p(-U) is log(1 - U), finite for U in [0, 1).
        failures = np.floor(np.log1p(-failure_rng.random(size)) / log_miss)
        excess = np.searchsorted(table, closing_rng.random(size) * table[-1], side="right")
        # T * Beta rounds to T itself now and then at a large n_required.
        closes = np.minimum(max_time * beta_rng.beta(n, excess + 1.0), below_max)
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
    # One exact math.fsum, fed from lists of at most _CHUNK_BUDGET values: a
    # list of the whole array would take 32 bytes per value.
    chunks = (values[i:i + _CHUNK_BUDGET].tolist() for i in range(0, values.size, _CHUNK_BUDGET))
    try:
        return math.fsum(itertools.chain.from_iterable(chunks))
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
    """What one stream will do, found before it draws anything: _plan's decisions."""

    p: float  # success probability
    level_before: Callable[[np.ndarray], np.ndarray]  # the stock before dispatch m
    dispatches: int  # the run's dispatch total D
    work: float  # the work estimate, in unit
    unit: str
    table: bool  # the dispatch sampler's table route, or else erlang windows


def _plan(
    auction: AuctionParams, policy: Policy, config: SimulationConfig, logged: bool
) -> _Plan:
    """Check that one stream can run, pick its draw route and stock rule, and count its work.

    The one reader of config.shortfall_rule. level_before(m), the stock
    before dispatch m (counted from 0 over the run) and after m - 1, is a
    closed form of m: a step-by-step replay's levels bit for bit, and ints
    for an int quantity, while every product it forms is within 2**53 (exact
    in float64, far from int64's wrap); a run past that is refused. The work
    estimate and its unit are as simulate documents them.
    """
    if auction.unbounded:
        raise ConfigError("max_time: must be finite for simulation")
    quantity, n_required = policy.quantity, auction.n_required
    if config.shortfall_rule == "reset_to_q":
        per_cycle = _ceil_batches(quantity, n_required)
        dispatches = config.num_cycles * per_cycle
        formula = "cycles * ceil(quantity / n_required)"
        # level_before's products (m % per_cycle) * n_required stay below quantity.
        reach = max(n_required, quantity)

        def level_before(m: np.ndarray) -> np.ndarray:
            return quantity - (m % per_cycle) * n_required

    elif quantity < n_required:
        raise ConfigError(
            "carry_shortfall requires quantity >= n_required so the restart level stays positive"
        )
    else:
        # Cycle c closes at the first dispatch that brings the units
        # dispatched to c * Q or more, so the run ends at ceil(num_cycles * Q / n).
        dispatches = _ceil_batches(quantity, n_required, config.num_cycles)
        formula = "ceil(cycles * quantity / n_required)"
        reach = dispatches * n_required  # above every m * n_required of the run

        def level_before(m: np.ndarray) -> np.ndarray:
            return quantity - m * n_required % quantity

    if reach > 2**53:
        raise NumericsError(
            f"simulated stock levels are exact up to 2**53 units, and this run reaches "
            f"{_as_float(reach):.3g}; use a smaller n_required or quantity, or fewer cycles"
        )
    p = _nondegenerate_success_pair(auction)[0]
    table = config.duration_sampler == "dispatch" and _table_length(auction, p) > 0
    if table and not logged:
        work = _as_float(dispatches)
        unit = f"dispatches ({formula})"
    else:
        work = _as_float(dispatches) / p
        unit = f"bidding windows ({formula} / p_success)"
    return _Plan(p, level_before, dispatches, work, unit, table)


def _as_float(count: int) -> float:
    # A count past the float range is over every budget: it counts as inf.
    return float(count) if count <= sys.float_info.max else math.inf


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
    needs no simulation) and, under "carry_shortfall", a policy quantity of at
    least n_required. Raises DegenerateAuctionError before drawing anything
    when the success probability underflows, as such a run would never end;
    NumericsError, also before drawing anything, when _check_budget refuses
    the work estimate of _plan or num_cycles. With D dispatches in the run,
    num_cycles * ceil(Q / n_required) under "reset_to_q" and ceil(num_cycles *
    Q / n_required) under "carry_shortfall", the estimate is D on the dispatch
    sampler's table route, and D / p_success bidding windows on the window
    route (every "erlang" run, and a "dispatch" run without a table) and for
    any logged run. It also raises NumericsError when the D dispatches leave a
    cycle open, and when the clock overflows double precision; the clock is
    checked before a batch is logged, so the log never holds a non-finite
    time. Both routes' draws are accounted as each dispatch's failed windows F
    and closing window S: dispatch k closes at (the previous dispatch + F *
    max_time) + S. When event_log is given (path or open text file), one JSON
    line is written per bidding window with keys auction, start, duration,
    outcome and level_after; level_after is the stock after any dispatch and
    replenishment triggered by that window. Per dispatch the log holds F
    failure lines, the i-th starting i * max_time after the previous dispatch,
    then the success line.
    """
    plan = _plan(auction, policy, config, event_log is not None)
    _check_budget(plan.work, plan.unit, 1, config)
    return _run(auction, costs, config, plan, stream, event_log)


def _check_budget(work: float, unit: str, streams: int, config: SimulationConfig) -> None:
    """Refuse simulations over the work budget, then over the cycle bound.

    The one size check of simulate, replicate and simulated sweeps. work
    is one stream's estimate, in unit, on average over the streams.
    Several streams also pay _STREAM_UNITS each for their fixed cost; a
    single stream pays nothing. Each stream may keep at most _MAX_CYCLES
    cycles.
    """
    count = _as_float(streams)
    total = count * work + count * _STREAM_UNITS if streams > 1 else work
    if total > _MAX_DRAWS and streams > 1:
        raise NumericsError(
            f"{int_text(streams)} simulations of about {work:.3g} {unit} each, plus "
            f"{_STREAM_UNITS} per simulation for its fixed cost, {total:.3g} in all, are over "
            f"the budget of {_MAX_DRAWS:.0e}; use fewer simulations, fewer cycles or a smaller "
            "quantity"
        )
    if total > _MAX_DRAWS:
        raise NumericsError(
            f"simulation would draw about {work:.3g} {unit}, over the budget of {_MAX_DRAWS:.0e}; "
            "use fewer cycles or a smaller quantity"
        )
    if config.num_cycles > _MAX_CYCLES:
        raise NumericsError(
            f"simulation would keep {config.num_cycles} cycles, over the bound of "
            f"{_MAX_CYCLES:.0e} per stream (about {_CYCLE_BYTES} bytes each); use fewer cycles"
        )


def _run(
    auction: AuctionParams,
    costs: CostParams,
    config: SimulationConfig,
    plan: _Plan,
    stream: int,
    event_log: str | Path | IO[str] | None,
) -> SimulationResult:
    """simulate's run of one stream, from a plan already checked."""
    n_required = auction.n_required
    import numpy as np

    rng = rng_stream(config.seed, stream)
    max_time = auction.max_time
    dispatch_charge = costs.dispatch_cost + costs.unit_transport_cost * n_required

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
        route = _draw_dispatches if plan.table else _regroup
        for failures, closes in route(rng, auction, plan.p, plan.dispatches):
            count = failures.size
            level = plan.level_before(dispatches + np.arange(count))
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
                after = plan.level_before(dispatches + 1 + np.arange(count))
                _write_windows(log, auctions, marks, failures, closes, level, after, max_time)
            auctions += windows
            dispatches += count
            clock = times[-1]
            cycles_left -= closing.size
            if not cycles_left:
                break
        else:
            raise NumericsError(
                f"simulation drew its planned {int_text(plan.dispatches)} dispatches and left "
                f"{int_text(cycles_left)} of {int_text(config.num_cycles)} cycles open"
            )

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
        if isinstance(value, float):
            _finite(value, f"simulated {name}")
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
    the same regardless of how many replications were requested. The run
    is planned once, for every stream, and _check_budget refuses all the
    streams together before any of them draws.
    """
    check_int("num_replications", num_replications, 1)
    plan = _plan(auction, policy, config, False)
    _check_budget(plan.work, plan.unit, num_replications, config)
    return [
        _run(auction, costs, config, plan, index, None)
        for index in range(num_replications)
    ]


def _z(estimate: float, value: float, se: float) -> float:
    """Distance of an estimate from its analytic value in standard errors."""
    return (estimate - value) / se if se > 0 else math.nan


def _analytic_comparison(
    result: SimulationResult, stats: AuctionStatistics, costs: CostParams, policy: Policy, n: int
) -> dict[tuple[str, str | None, str | None], tuple[float, float]]:
    """Analytic value and z of each simulated estimate, in report order.

    Keyed by (quantity, td_mode, a_mode), None where a mode does not apply:
    the success probability, the dispatch time in both td modes and the
    cost rate in every td x a mode pair.
    """
    p = stats.p_success
    rows = {("p_success", None, None): (p, _z(result.p_hat, p, result.p_hat_se))}
    for td_mode in TD_MODES:
        value = select_dispatch_time(stats, td_mode)
        rows["dispatch time", td_mode, None] = (
            value, _z(result.mean_dispatch_interval, value, result.mean_dispatch_interval_se)
        )
    for td_mode in TD_MODES:
        for a_mode in A_MODES:
            value = long_run_average_cost(stats, costs, policy, n, td_mode, a_mode)
            rows["cost rate", td_mode, a_mode] = (
                value, _z(result.long_run_cost, value, result.long_run_cost_se)
            )
    return rows
