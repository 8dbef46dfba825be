import dataclasses
import functools
import io
import itertools
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from groupbuy_inventory import (
    AuctionParams,
    ConfigError,
    CostParams,
    NumericsError,
    ParameterError,
    Policy,
    SimulationConfig,
    SweepSpec,
    auction_statistics,
    best_integer_quantity,
    long_run_average_cost,
    regularized_lower_gamma,
    replicate,
    rng_stream,
    run_sweep,
    simulate,
)
from groupbuy_inventory import simulator
from groupbuy_inventory.simulator import SimulationCounts, SimulationResult


def _reference_windows(auction, policy, config, rng):
    """Every window's duration, one float at a time, as the sampler draws them.

    Off the dispatch sampler's table route, one gamma variate per window,
    drawn here in batches of 1000 (numpy fills gamma draws sequentially,
    whatever the batch); on it, the sampler's (F, S) replayed as F failed
    windows of max_time, then the closing window S.
    """
    plan = simulator._plan(auction, policy, config, False)
    if not plan.table:
        scale = 1.0 / auction.arrival_rate
        return (
            window
            for _ in itertools.count()
            for window in rng.gamma(auction.n_required, scale, 1000).tolist()
        )
    return (
        window
        for failures, closes in simulator._draw_dispatches(rng, auction, plan.p, math.inf)
        for f, s in zip(failures.tolist(), closes.tolist())
        for window in [auction.max_time] * int(f) + [s]
    )


def _reference_mean_se(values):
    """The sample mean and its standard error, sd / sqrt(size); 0.0 for what is missing."""
    x = np.asarray(values, dtype=float)
    mean = x.sum() / x.size if x.size else 0.0
    return mean, np.sqrt(np.sum((x - mean) ** 2) / (x.size - 1) / x.size) if x.size > 1 else 0.0


def reference_simulate(auction, costs, policy, config, *, stream=0, event_log=None):
    """The step-by-step oracle: one Python iteration per bidding window.

    It draws the same windows as simulate and keeps simulate's clock rule:
    failed window i after a dispatch starts at last_dispatch + i * max_time,
    and the dispatch closes at (last_dispatch + F * max_time) + S. It
    accrues holding cost as level * window per window, where simulate sums
    level * (time since the previous dispatch) per dispatch; the two agree
    up to roundoff.
    """
    rng = simulator.rng_stream(config.seed, stream)
    n_required = auction.n_required
    max_time = auction.max_time
    dispatch_charge = costs.dispatch_cost + costs.unit_transport_cost * n_required
    reset = config.shortfall_rule == "reset_to_q"
    cycle_costs, cycle_lengths, intervals = [], [], []
    auctions = dispatches = failed = 0
    last_dispatch = cycle_start = cycle_cost = 0.0
    level = policy.quantity
    cycles_left = config.num_cycles
    for duration in _reference_windows(auction, policy, config, rng):
        auctions += 1
        success = duration < max_time
        window = duration if success else max_time
        start = last_dispatch + failed * max_time
        cycle_cost += costs.holding_rate * level * window + (
            dispatch_charge if success else costs.failure_penalty
        )
        if success:
            clock = start + duration
            dispatches += 1
            intervals.append(clock - last_dispatch)
            last_dispatch = clock
            failed = 0
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
        else:
            failed += 1
        if event_log is not None:
            event_log.write(
                f'{{"auction":{auctions},"start":{start},"duration":{window},'
                f'"outcome":"{"success" if success else "failure"}","level_after":{level}}}\n'
            )
        if not cycles_left:
            break
    costs_arr, lengths_arr = np.asarray(cycle_costs), np.asarray(cycle_lengths)
    long_run = math.fsum(cycle_costs) / math.fsum(cycle_lengths)
    p_hat = dispatches / auctions
    # The delta-method standard error of the ratio: the standard error of the
    # residuals' mean over the mean cycle length.
    long_run_se = _reference_mean_se(costs_arr - long_run * lengths_arr)[1] / lengths_arr.mean()
    return SimulationResult(
        p_hat,
        math.sqrt(p_hat * (1.0 - p_hat) / auctions) if auctions > 1 else 0.0,
        *_reference_mean_se(intervals),
        *_reference_mean_se(cycle_lengths),
        *_reference_mean_se(cycle_costs),
        math.fsum(cycle_costs),
        math.fsum(cycle_lengths),
        long_run,
        long_run_se,
        stats.norm.ppf(0.975) * long_run_se,
        SimulationCounts(auctions, auctions - dispatches, dispatches, len(cycle_costs)),
    )


class _CountingGenerator:
    """A numpy Generator that counts, per method, the values its draws return."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def spawn(self, n_children):
        return [_CountingGenerator(child, self._counts) for child in self._rng.spawn(n_children)]

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            values = method(*args, **kwargs)
            self._counts[name] = self._counts.get(name, 0) + np.size(values)
            return values

        return counted


def _count_draws(monkeypatch) -> dict:
    """Route simulate's streams through _CountingGenerator; returns its counts."""
    counts = {}
    stream = simulator.rng_stream
    monkeypatch.setattr(
        simulator, "rng_stream", lambda seed, index: _CountingGenerator(stream(seed, index), counts)
    )
    return counts


@pytest.fixture
def base_policy() -> Policy:
    return Policy(434.0)


def _config(**overrides) -> SimulationConfig:
    kwargs = dict(num_cycles=2000, seed=20260814)
    kwargs.update(overrides)
    return SimulationConfig(**kwargs)


class TestDeterminism:
    def test_same_inputs_same_result(self, base_auction, base_costs, base_policy):
        config = _config()
        first = simulate(base_auction, base_costs, base_policy, config)
        second = simulate(base_auction, base_costs, base_policy, config)
        assert first == second

    def test_seed_changes_result(self, base_auction, base_costs, base_policy):
        first = simulate(base_auction, base_costs, base_policy, _config(seed=1))
        second = simulate(base_auction, base_costs, base_policy, _config(seed=2))
        assert first != second

    def test_stream_changes_result(self, base_auction, base_costs, base_policy):
        config = _config()
        first = simulate(base_auction, base_costs, base_policy, config, stream=0)
        second = simulate(base_auction, base_costs, base_policy, config, stream=1)
        assert first != second

    def test_rng_stream_derivation(self):
        expected = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(3,)))
        actual = rng_stream(5, 3)
        assert np.array_equal(
            actual.standard_normal(8), expected.standard_normal(8)
        )
        with pytest.raises(ParameterError):
            rng_stream(5, -1)

    @pytest.mark.parametrize("index", [True, 1.5])
    def test_rng_stream_rejects_a_non_integer_index(self, index):
        with pytest.raises(ParameterError, match="^stream index must be an integer$"):
            rng_stream(0, index)

    def test_simulate_rejects_a_non_integer_stream(self, base_auction, base_costs, base_policy):
        with pytest.raises(ParameterError, match="^stream index must be an integer$"):
            simulate(base_auction, base_costs, base_policy, _config(num_cycles=1), stream=1.5)


class TestReplicate:
    def test_stream_zero_matches_simulate(self, base_auction, base_costs, base_policy):
        config = _config(num_cycles=500)
        results = replicate(base_auction, base_costs, base_policy, config, 3)
        assert results[0] == simulate(base_auction, base_costs, base_policy, config, stream=0)

    def test_plans_once_for_every_stream(self, monkeypatch, base_costs):
        # p = 0.017: the dispatch sampler's table route, whose table all streams share.
        auction, policy, config = AuctionParams(120, 7.0, 14.0), Policy(94.0), _config(num_cycles=50)
        expected = [
            simulate(auction, base_costs, policy, config, stream=index) for index in range(5)
        ]
        plans = []
        plan = simulator._plan
        monkeypatch.setattr(simulator, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
        simulator._excess_table.cache_clear()
        assert replicate(auction, base_costs, policy, config, 5) == expected
        # One plan, and one table built, then reused by the other four streams.
        assert len(plans) == 1 and simulator._excess_table.cache_info()[:2] == (4, 1)
        assert plans[0].table

    def test_prefix_stability(self, base_auction, base_costs, base_policy):
        config = _config(num_cycles=300)
        two = replicate(base_auction, base_costs, base_policy, config, 2)
        three = replicate(base_auction, base_costs, base_policy, config, 3)
        assert three[:2] == two

    def test_streams_are_distinct(self, base_auction, base_costs, base_policy):
        config = _config(num_cycles=300)
        results = replicate(base_auction, base_costs, base_policy, config, 3)
        assert len({r.long_run_cost for r in results}) == 3

    def test_validation(self, base_auction, base_costs, base_policy):
        with pytest.raises(ParameterError):
            replicate(base_auction, base_costs, base_policy, _config(), 0)

    @pytest.mark.parametrize(
        "replications,message",
        [
            # 10 cycles of ceil(434 / 100) = 5 dispatches at p = 0.4333: 115.4
            # windows per stream, plus 10,000 for the stream itself; 30,346 for three.
            (3, r"^3 simulations of about 115 bidding windows \(cycles \* ceil\(quantity / "
                r"n_required\) / p_success\) each, plus 10000 per simulation for its fixed cost, "
                r"3\.03e\+04 in all, are over the budget of 3e\+04; "
                r"use fewer simulations, fewer cycles or a smaller quantity$"),
            # One stream keeps simulate's own message.
            (1, r"^simulation would draw about 115 bidding windows"),
        ],
    )
    def test_work_budget_counts_every_replication(
        self, monkeypatch, base_auction, base_costs, replications, message
    ):
        def no_draws(*args):
            raise AssertionError("a stream drew")

        monkeypatch.setattr(simulator, "_MAX_DRAWS", 30_300 if replications > 1 else 100)
        monkeypatch.setattr(simulator, "rng_stream", no_draws)
        with pytest.raises(NumericsError, match=message):
            replicate(base_auction, base_costs, Policy(434.0), _config(num_cycles=10), replications)

    @pytest.mark.parametrize(
        "cycles,replications,message",
        [(10**400, 1, "about inf bidding windows"), (10, 10**400, "each, .* inf in all")],
        ids=["cycles", "replications"],
    )
    def test_counts_past_the_float_range_are_over_the_budget(
        self, base_auction, base_costs, cycles, replications, message
    ):
        with pytest.raises(NumericsError, match=message):
            replicate(base_auction, base_costs, Policy(434.0), _config(num_cycles=cycles), replications)

    def test_replications_past_the_int_to_str_limit_are_shown_in_e_notation(
        self, base_auction, base_costs
    ):
        # str(10**5000) raises ValueError past Python's 4,300-digit limit.
        with pytest.raises(NumericsError, match=r"^1\.00e\+5000 simulations of about 115 bidding"):
            replicate(base_auction, base_costs, Policy(434.0), _config(num_cycles=10), 10**5000)

    def test_replications_within_the_budget_run(self, monkeypatch, base_auction, base_costs):
        # Two streams of 115.4 windows and 10,000 fixed units: 20,231 in all.
        monkeypatch.setattr(simulator, "_MAX_DRAWS", 20_231)
        results = replicate(base_auction, base_costs, Policy(434.0), _config(num_cycles=10), 2)
        assert [r.counts.cycles for r in results] == [10, 10]


class TestResultContracts:
    def test_count_identities(self, base_auction, base_costs, base_policy):
        result = simulate(base_auction, base_costs, base_policy, _config())
        counts = result.counts
        assert counts.failures + counts.dispatches == counts.auctions
        assert counts.cycles == 2000
        assert result.p_hat == counts.dispatches / counts.auctions
        # Q=434 always yields 5 dispatches per cycle under reset_to_q.
        assert counts.dispatches == 5 * counts.cycles

    def test_renewal_identity_is_exact(self, base_auction, base_costs, base_policy):
        result = simulate(base_auction, base_costs, base_policy, _config())
        assert result.long_run_cost == result.total_cost / result.total_time

    def test_halfwidth_is_95_percent_normal_quantile_times_se(
        self, base_auction, base_costs, base_policy
    ):
        result = simulate(base_auction, base_costs, base_policy, _config())
        assert result.long_run_cost_se > 0.0
        assert result.long_run_cost_halfwidth == 1.959963984540054 * result.long_run_cost_se

    def test_single_cycle_standard_errors_are_zero(self, base_auction, base_costs):
        result = simulate(base_auction, base_costs, Policy(50.0), _config(num_cycles=1))
        assert result.counts.cycles == 1
        assert result.mean_cycle_cost_se == 0.0
        assert result.mean_cycle_length_se == 0.0
        assert result.long_run_cost_se == 0.0
        assert result.long_run_cost_halfwidth == 0.0
        # One dispatch drains 50 < 100 units, so exactly one interval exists.
        assert result.counts.dispatches == 1
        assert result.mean_dispatch_interval_se == 0.0

    def test_fsum_in_slices_is_one_exact_sum(self):
        # Four slices, with magnitudes whose naive sums round differently, and a
        # 1e16 whose cancellation spans two slices: one exact sum keeps the 1.0
        # that a sum of per-slice sums would round away.
        rng = np.random.default_rng(11)
        values = rng.standard_normal(200_000) * 10.0 ** rng.integers(-20, 20, 200_000)
        values[:2], values[70_000] = (1e16, 1.0), -1e16
        assert simulator._fsum(values).hex() == math.fsum(values.tolist()).hex()
        values = np.zeros(200_000)
        values[:2], values[70_000] = (1e16, 1.0), -1e16
        assert simulator._fsum(values) == 1.0
        huge = np.full(200_000, 1e308)
        assert simulator._fsum(huge) == math.inf


class TestDrawBatches:
    @pytest.mark.parametrize("sampler", ["erlang", "dispatch"])
    def test_result_does_not_depend_on_batch_size(
        self, monkeypatch, base_auction, base_costs, base_policy, sampler
    ):
        # Numpy fills uniform, gamma and beta draws sequentially, so many small
        # batches yield the same duration sequence as one large batch.
        config = _config(num_cycles=300, duration_sampler=sampler)
        default = simulate(base_auction, base_costs, base_policy, config)
        monkeypatch.setattr(simulator, "_DRAW_BATCH", 7)
        assert simulate(base_auction, base_costs, base_policy, config) == default

    @pytest.mark.parametrize("batch", [7, simulator._DRAW_BATCH], ids=["batch-7", "batch-default"])
    def test_result_does_not_depend_on_the_window_cap(self, monkeypatch, base_costs, batch):
        # 100 cycles of ceil(130 / 40) = 4 dispatches at p = 0.019: about
        # 21k windows, so a cap of 64 binds on every draw.
        auction = AuctionParams(n_required=40, max_time=2.0, arrival_rate=14.0)
        config = _config(num_cycles=100, duration_sampler="erlang")
        default = simulate(auction, base_costs, Policy(130.0), config)
        monkeypatch.setattr(simulator, "_CHUNK_BUDGET", 64)
        monkeypatch.setattr(simulator, "_DRAW_BATCH", batch)
        assert simulate(auction, base_costs, Policy(130.0), config) == default

    @pytest.mark.parametrize("logged", [False, True], ids=["unlogged", "logged"])
    def test_per_window_draw_sizes(self, monkeypatch, base_costs, logged):
        # (120, 7) at Q = 94: 500 dispatches at p = 0.017, about 29k windows.
        # Unlogged, they come in one draw, or two when the first falls
        # short; a logged run makes the same draws.
        sizes = []
        stream = simulator.rng_stream

        class Recording:
            def __init__(self, rng):
                self.rng = rng

            def gamma(self, shape, scale, size):
                sizes.append(size)
                return self.rng.gamma(shape, scale, size)

        monkeypatch.setattr(
            simulator, "rng_stream", lambda seed, index: Recording(stream(seed, index))
        )
        config = _config(num_cycles=500, duration_sampler="erlang")
        auction = AuctionParams(120, 7.0, 14.0)

        def run(log):
            sizes.clear()
            result = simulate(auction, base_costs, Policy(94.0), config, event_log=log)
            assert result.counts.auctions <= sum(sizes)
            return list(sizes)

        if logged:
            assert run(io.StringIO()) == run(None)
        else:
            assert len(run(None)) <= 2

    def test_one_auction_run_draws_a_small_batch(self, base_costs):
        auction = AuctionParams(n_required=1, max_time=1.0, arrival_rate=5.0)
        config = _config(num_cycles=1, duration_sampler="erlang")
        # The first run loads numpy's generator machinery; trace the second.
        simulate(auction, base_costs, Policy(1.0), config)
        tracemalloc.start()
        try:
            result = simulate(auction, base_costs, Policy(1.0), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.counts.cycles == 1
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("batch", [7, simulator._DRAW_BATCH], ids=["batch-7", "batch-default"])
    def test_dispatch_run_draws_exactly_its_dispatches(self, monkeypatch, base_costs, batch):
        # (120, 6) at Q = 9 takes the table route with one dispatch per cycle:
        # each of the D = 10 dispatches takes a uniform for F, a uniform for
        # the table and a beta variate.
        counts = _count_draws(monkeypatch)
        monkeypatch.setattr(simulator, "_DRAW_BATCH", batch)
        auction = AuctionParams(120, 6.0, 14.0)
        result = simulate(auction, base_costs, Policy(9.0), _config(num_cycles=10))
        assert result.counts.dispatches == 10
        assert counts == {"random": 20, "beta": 10}

    def test_per_window_run_draws_no_padded_batch(self, monkeypatch, base_costs):
        counts = _count_draws(monkeypatch)
        config = _config(num_cycles=3, duration_sampler="erlang")
        result = simulate(BASE, base_costs, Policy(Q_STAR), config)
        windows = counts.pop("gamma")
        assert not counts
        # 15 dispatches at p = 0.43: about 35 windows, where a full batch is 4096.
        assert result.counts.auctions <= windows < 2 * result.counts.auctions

    @settings(max_examples=200, deadline=None)
    @given(
        n_required=st.integers(min_value=1, max_value=300),
        ratio=st.one_of(
            st.integers(min_value=1, max_value=50), st.floats(min_value=0.01, max_value=50.0)
        ),
        ulps=st.integers(min_value=-2, max_value=2),
        cycles=st.integers(min_value=1, max_value=40),
        rule=st.sampled_from(["reset_to_q", "carry_shortfall"]),
    )
    # Q a multiple of n, fractional, below n, and one ulp either side of 3n.
    @example(n_required=100, ratio=3, ulps=0, cycles=7, rule="carry_shortfall")
    @example(n_required=100, ratio=4.338596995663529, ulps=0, cycles=7, rule="carry_shortfall")
    @example(n_required=100, ratio=0.5, ulps=0, cycles=7, rule="reset_to_q")
    @example(n_required=3, ratio=3, ulps=1, cycles=7, rule="carry_shortfall")
    @example(n_required=3, ratio=3, ulps=-1, cycles=7, rule="reset_to_q")
    def test_dispatch_total_is_known_before_the_first_draw(
        self, n_required, ratio, ulps, cycles, rule
    ):
        quantity = ratio * n_required
        for _ in range(abs(ulps)):
            quantity = math.nextafter(quantity, math.copysign(math.inf, ulps))
        if rule == "carry_shortfall" and quantity < n_required:
            return
        # p is about 1, so the run is short whatever its dispatches per cycle.
        auction = AuctionParams(n_required, n_required + 10.0 * math.sqrt(n_required) + 10.0, 1.0)
        costs = CostParams(40.0, 4.0, 0.02, 10.0, 300.0)
        totals = []
        draw, regroup = simulator._draw_dispatches, simulator._regroup

        def recording(rng, auction, p, total):
            totals.append(total)
            return draw(rng, auction, p, total)

        def regrouping(rng, auction, p, total):
            totals.append(total)
            return regroup(rng, auction, p, total)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulator, "_draw_dispatches", recording)
            patch.setattr(simulator, "_regroup", regrouping)
            config = _config(num_cycles=cycles, shortfall_rule=rule)
            result = simulate(auction, costs, Policy(quantity), config)
        assert result.counts.cycles == cycles
        assert totals == [result.counts.dispatches]
        assert simulator._plan(auction, Policy(quantity), config, False).dispatches == totals[0]

    def test_dispatch_gap_statistics_do_not_grow_with_the_run(self, base_costs):
        # p_success is 1, so 2,000 cycles of Q / n = 1,000 are 2e6 dispatches:
        # one float per dispatch gap alone would be 15 MiB.
        auction = AuctionParams(n_required=1, max_time=1000.0, arrival_rate=1.0)
        config = _config(num_cycles=2000, duration_sampler="erlang")
        # The first run loads numpy's generator machinery; trace the second.
        simulate(auction, base_costs, Policy(1000.0), config)
        tracemalloc.start()
        try:
            result = simulate(auction, base_costs, Policy(1000.0), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.counts.dispatches == 2_000_000
        assert peak < 8 * 2**20


BASE = AuctionParams(n_required=100, max_time=7.0, arrival_rate=14.0)
Q_STAR = 433.8596995663529


class TestReferenceEquivalence:
    # (auction, quantity, shortfall rule, cycles)
    DESIGNS = {
        "int-q-int-window": (AuctionParams(100, 7, 14.0), 150, "reset_to_q", 300),
        "fractional-q": (BASE, Q_STAR, "reset_to_q", 300),
        "q-multiple-of-n": (BASE, 300.0, "reset_to_q", 300),
        "q-below-n": (BASE, 50.0, "reset_to_q", 300),
        "n-required-1": (AuctionParams(1, 1.0, 5.0), 37.0, "reset_to_q", 50),
        "carry-fractional-q": (BASE, Q_STAR, "carry_shortfall", 300),
        "carry-int-q": (BASE, 150, "carry_shortfall", 300),
        "carry-q-multiple-of-n": (BASE, 300.0, "carry_shortfall", 300),
        "carry-n-required-1": (AuctionParams(1, 1.0, 5.0), 37.25, "carry_shortfall", 50),
        # F * max_time rounds once where F additions of max_time round F times.
        "non-integer-window": (AuctionParams(100, 6.3, 14.0), 150, "reset_to_q", 300),
    }

    # A batch of 1 puts a batch boundary after every window or dispatch.
    @pytest.mark.parametrize(
        "batch", [1, 7, simulator._DRAW_BATCH], ids=["batch-1", "batch-7", "batch-default"]
    )
    @pytest.mark.parametrize("sampler", ["erlang", "dispatch"])
    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_matches_step_by_step_reference(self, monkeypatch, base_costs, design, sampler, batch):
        auction, quantity, rule, cycles = self.DESIGNS[design]
        config = _config(num_cycles=cycles, shortfall_rule=rule, duration_sampler=sampler)
        monkeypatch.setattr(simulator, "_DRAW_BATCH", batch)
        log, reference_log = io.StringIO(), io.StringIO()
        result = simulate(auction, base_costs, Policy(quantity), config, event_log=log)
        reference = reference_simulate(
            auction, base_costs, Policy(quantity), config, event_log=reference_log
        )
        assert result.counts == reference.counts
        text, reference_text = log.getvalue(), reference_log.getvalue()
        if text != reference_text:
            # Name the first differing line; a full diff of the logs takes minutes.
            pairs = zip(text.splitlines(), reference_text.splitlines())
            first = next((pair for pair in pairs if pair[0] != pair[1]), "the end")
            pytest.fail(f"event logs differ at {first}")
        fields = dataclasses.asdict(result)
        for name, value in dataclasses.asdict(reference).items():
            if name != "counts":
                assert math.isclose(fields[name], value, rel_tol=1e-12), name

    def test_long_cycles_do_not_depend_on_batch_size(self, monkeypatch, base_costs):
        # 10k dispatches per cycle: each cycle spans many 7-window batches,
        # and its cost is still summed over the same terms in one go.
        auction = AuctionParams(n_required=1, max_time=1.0, arrival_rate=5.0)
        config = _config(num_cycles=3, duration_sampler="erlang")
        default = simulate(auction, base_costs, Policy(1e4), config)
        monkeypatch.setattr(simulator, "_DRAW_BATCH", 7)
        assert simulate(auction, base_costs, Policy(1e4), config) == default

    def test_event_log_is_written_once_per_batch(self, base_costs):
        class CountingLog(io.StringIO):
            writes = 0

            def write(self, text):
                self.writes += 1
                return super().write(text)

        log = CountingLog()
        result = simulate(
            BASE, base_costs, Policy(Q_STAR), _config(num_cycles=2000, duration_sampler="erlang"),
            event_log=log,
        )
        assert log.getvalue().count("\n") == result.counts.auctions
        assert log.writes <= math.ceil(result.counts.auctions / simulator._DRAW_BATCH) + 1


class TestDispatchSampler:
    # The two routes to the closing window: the table below p = 0.25,
    # erlang windows from there up.
    ROUTES = {
        "table-p1e-4": AuctionParams(120, 6.0, 14.0),
        "table-p0.05": AuctionParams(100, 6.0, 14.0),
        "windows-p0.43": BASE,
        "windows-p1": AuctionParams(80, 8.0, 14.0),
    }

    @staticmethod
    def draws(auction, p, batches):
        rng = rng_stream(11, 0)
        # The design picks the route. At a p other than the design's, only F
        # is read: S then follows the table built for that p.
        table = simulator._table_length(auction, auction_statistics(auction).p_success)
        route = simulator._draw_dispatches if table else simulator._regroup
        draws = route(rng, auction, p, math.inf)
        failures, closes = zip(*itertools.islice(draws, batches))
        return np.concatenate(failures), np.concatenate(closes)

    @pytest.mark.parametrize("design", list(ROUTES))
    def test_closing_window_is_a_gamma_below_max_time(self, design):
        auction = self.ROUTES[design]
        p = auction_statistics(auction).p_success
        assert bool(simulator._table_length(auction, p)) == design.startswith("table")
        _, closes = self.draws(auction, p, 5)
        assert closes.max() < auction.max_time
        gamma = stats.gamma(auction.n_required, scale=1.0 / auction.arrival_rate)
        below_max_time = gamma.cdf(auction.max_time)
        assert stats.kstest(closes, lambda s: gamma.cdf(s) / below_max_time).pvalue > 1e-3

    @pytest.mark.parametrize(
        "auction",
        [ROUTES["table-p1e-4"], ROUTES["table-p0.05"], AuctionParams(1, 0.01, 1.0),
         AuctionParams(10**6, 0.99 * 10**6, 1.0)],
        ids=["n120-p1e-4", "n100-p0.05", "n1-p0.01", "n1e6-p1e-23"],
    )
    def test_table_is_the_poisson_cdf_above_n_required(self, auction):
        n, mean = auction.n_required, auction.arrival_rate * auction.max_time
        table = simulator._excess_table(auction, auction_statistics(auction).p_success)
        m = np.arange(n, n + table.size)
        # P(N <= m | N >= n), from tail probabilities, which do not cancel.
        tail = stats.poisson.sf(n - 1, mean)
        expected = (tail - stats.poisson.sf(m, mean)) / tail
        assert np.allclose(table / table[-1], expected, rtol=1e-9, atol=1e-15)

    @pytest.mark.parametrize("p", [1e-12, 1e-4, 0.3, 0.9])
    def test_failures_have_the_geometric_mean(self, p):
        failures, _ = self.draws(self.ROUTES["table-p0.05"], p, 20)
        assert np.array_equal(failures, np.floor(failures)) and failures.min() >= 0.0
        # F = Geometric(p) - 1 has mean (1 - p) / p and variance (1 - p) / p**2.
        se = math.sqrt((1.0 - p) / failures.size) / p
        assert abs(failures.mean() - (1.0 - p) / p) <= 4.0 * se

    def test_certain_success_has_no_failures(self):
        failures, _ = self.draws(self.ROUTES["table-p0.05"], 1.0, 2)
        assert not failures.any()

    @pytest.mark.parametrize(
        "n_required,max_time", list(itertools.product((80, 100, 120), (6.0, 7.0, 8.0)))
    )
    def test_reference_grid_agrees_with_consistent_exact_analytics(
        self, base_costs, n_required, max_time
    ):
        # validate's cells at its quantity, the best integer in the paper mode.
        auction = AuctionParams(n_required, max_time, 14.0)
        closed = auction_statistics(auction)
        policy = Policy(float(best_integer_quantity(closed, base_costs, n_required, "paper")))
        result = simulate(auction, base_costs, policy, _config(num_cycles=20000))
        cost = long_run_average_cost(closed, base_costs, policy, n_required, "consistent", "exact")
        z = {
            "cost": (result.long_run_cost - cost) / result.long_run_cost_se,
            "p": (result.p_hat - closed.p_success) / result.p_hat_se,
            "interval": (result.mean_dispatch_interval - closed.dispatch_time_consistent)
            / result.mean_dispatch_interval_se,
        }
        assert all(abs(value) <= 4.0 for value in z.values()), z

    def test_low_p_design_runs_in_under_a_second(self):
        # (150, 6): p = 5.7e-11, so 2e4 dispatches stand for 3.5e14 windows.
        script = (
            "import time\n"
            "import numpy\n"
            "import groupbuy_inventory as gb\n"
            "auction = gb.AuctionParams(n_required=150, max_time=6.0, arrival_rate=14.0)\n"
            "costs = gb.CostParams(40.0, 4.0, 0.02, 10.0, 300.0)\n"
            "start = time.perf_counter()\n"
            "result = gb.simulate(auction, costs, gb.Policy(9.0), gb.SimulationConfig(20000))\n"
            "print(time.perf_counter() - start, result.counts.cycles)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        seconds, cycles = result.stdout.split()
        assert float(seconds) < 1.0 and cycles == "20000"

    @pytest.mark.parametrize(
        "design,quantity,cycles", [("table-p1e-4", 9.0, 5), ("windows-p0.43", Q_STAR, 100)]
    )
    def test_result_and_log_do_not_depend_on_batch_size(
        self, monkeypatch, base_costs, design, quantity, cycles
    ):
        def run():
            log = io.StringIO()
            config = _config(num_cycles=cycles)
            auction = self.ROUTES[design]
            result = simulate(auction, base_costs, Policy(quantity), config, event_log=log)
            return result, log.getvalue()

        default = run()
        monkeypatch.setattr(simulator, "_DRAW_BATCH", 7)
        assert run() == default

    # n_required = 7e8 asks for a table past _MAX_TABLE, so p = 0.16 reads windows too.
    @pytest.mark.parametrize(
        "auction,quantity",
        [(BASE, Q_STAR), (ROUTES["windows-p1"], 300.0), (AuctionParams(1, 1.0, 5.0), 37.25),
         (AuctionParams(7 * 10**8, 7e8 - 26458.0, 1.0), 1.5e9)],
        ids=["windows-p0.43", "windows-p1", "n1-p0.99", "n7e8-p0.16"],
    )
    @pytest.mark.parametrize("rule", ["reset_to_q", "carry_shortfall"])
    def test_window_route_is_the_erlang_run(self, base_costs, auction, quantity, rule):
        assert not simulator._table_length(auction, auction_statistics(auction).p_success)
        runs = []
        for sampler in ("dispatch", "erlang"):
            log = io.StringIO()
            config = _config(num_cycles=40, shortfall_rule=rule, duration_sampler=sampler)
            result = simulate(auction, base_costs, Policy(quantity), config, stream=3, event_log=log)
            runs.append((result, log.getvalue()))
        assert runs[0] == runs[1]

    def test_log_rebuilds_each_dispatchs_windows(self, base_costs):
        log = io.StringIO()
        config = _config(num_cycles=300)
        result = simulate(BASE, base_costs, Policy(Q_STAR), config, event_log=log)
        assert simulate(BASE, base_costs, Policy(Q_STAR), config) == result
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [r["auction"] for r in records] == list(range(1, result.counts.auctions + 1))
        # Per dispatch: F failure lines that keep the level, the i-th starting
        # i * max_time after the previous dispatch, then the success line.
        level, last_dispatch, failed = Q_STAR, 0.0, 0
        for record in records:
            assert record["start"] == last_dispatch + failed * BASE.max_time
            if record["outcome"] == "failure":
                assert (record["duration"], record["level_after"]) == (BASE.max_time, level)
                failed += 1
            else:
                assert record["duration"] < BASE.max_time
                level, failed = record["level_after"], 0
                last_dispatch = record["start"] + record["duration"]
        assert failed == 0
        assert sum(r["outcome"] == "success" for r in records) == result.counts.dispatches

    @pytest.mark.parametrize(
        "sampler,logged,estimate",
        [
            ("dispatch", False, "10 dispatches (cycles * ceil(quantity / n_required))"),
            ("dispatch", True, "7.83e+04 bidding windows"),
            ("erlang", False, "7.83e+04 bidding windows"),
        ],
    )
    def test_work_budget_counts_each_samplers_draws(
        self, monkeypatch, base_costs, sampler, logged, estimate
    ):
        # (120, 6) at Q = 9: 10 cycles are 10 dispatches at p = 1.28e-4.
        monkeypatch.setattr(simulator, "_MAX_DRAWS", 9)
        log = io.StringIO() if logged else None
        message = f"^simulation would draw about {re.escape(estimate)}"
        with pytest.raises(NumericsError, match=message):
            simulate(
                self.ROUTES["table-p1e-4"], base_costs, Policy(9.0),
                _config(num_cycles=10, duration_sampler=sampler), event_log=log,
            )


class TestSamplerLaw:
    """Goodness of fit of each route's F and S to the renewal model's law.

    S given S < T has the truncated Erlang law, so u = P(n, rate * S) /
    P(n, rate * T) is Uniform(0, 1) (the probability integral transform);
    F = Geometric(p) - 1 by its randomized PIT (Dunn and Smyth, J. Comput.
    Graph. Stat. 5, 1996). The kernel is the oracle: neither route calls it
    while drawing. Seeds, the dispatch count and the level, 1e-3 per test
    with Bonferroni over the first four designs, were fixed before the first
    run. The five designs after them span p to 0.97 and n from 1 to 1e6; they
    draw from the next streams and keep the level, so that no check is looser.
    """

    DESIGNS = {
        "table-n120-p1e-4": AuctionParams(120, 6.0, 14.0),
        "table-n10-p0.03": AuctionParams(10, 1.0, 5.0),
        "windows-n100-p0.43": AuctionParams(100, 7.0, 14.0),
        "windows-n1000-p0.26": AuctionParams(1000, 70.0, 14.0),
        "windows-n80-p0.97": AuctionParams(80, 7.0, 14.0),
        # rate * T solved from the kernel for p = 0.05 and p = 0.5.
        "table-n1e6-p0.05": AuctionParams(10**6, 71311.0, 14.0),
        "windows-n1e6-p0.5": AuctionParams(10**6, 71429.0, 14.0),
        "table-n1-p0.2": AuctionParams(1, 0.05, 4.5),
        "windows-n1-p0.9": AuctionParams(1, 1.0, 2.3),
    }
    DISPATCHES = 20_000
    LEVEL = 2.5e-4

    @staticmethod
    @functools.cache
    def sample(design):
        """(p, F, u) of DISPATCHES dispatches on the route the design takes."""
        cls = TestSamplerLaw
        auction = cls.DESIGNS[design]
        n, rate = auction.n_required, auction.arrival_rate
        p = regularized_lower_gamma(n, rate * auction.max_time)
        rng = rng_stream(33, list(cls.DESIGNS).index(design))
        assert bool(simulator._table_length(auction, p)) == design.startswith("table")
        route = simulator._draw_dispatches if design.startswith("table") else simulator._regroup
        draws = route(rng, auction, p, cls.DISPATCHES)
        failures, closes = (np.concatenate(parts)[:cls.DISPATCHES] for parts in zip(*draws))
        u = np.array([regularized_lower_gamma(n, rate * s) for s in closes.tolist()]) / p
        return p, failures, u

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_closing_window_is_the_truncated_erlang(self, design):
        _, _, u = self.sample(design)
        pvalue = stats.kstest(u, "uniform").pvalue
        assert pvalue > self.LEVEL, f"{design}: KS p = {pvalue:.3g}"

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_failed_windows_are_geometric(self, design):
        p, failures, _ = self.sample(design)
        # P(F < f) = 1 - (1 - p)**f, and the PIT is uniform between P(F < f) and P(F <= f).
        jitter = np.random.default_rng(33).random(failures.size)
        pit = 1.0 - np.exp(failures * math.log1p(-p)) * (1.0 - p * jitter)
        pvalue = stats.kstest(pit, "uniform").pvalue
        assert pvalue > self.LEVEL, f"{design}: KS p = {pvalue:.3g}"

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_successive_closing_windows_are_uncorrelated(self, design):
        _, _, u = self.sample(design)
        result = stats.pearsonr(u[:-1], u[1:])
        assert result.pvalue > self.LEVEL, (
            f"{design}: lag-1 r = {result.statistic:.3g}, p = {result.pvalue:.3g}"
        )


class TestAgreementWithAnalytics:
    def test_success_rate(self, base_auction, base_costs, base_policy):
        result = simulate(base_auction, base_costs, base_policy, _config(num_cycles=20000))
        stats = auction_statistics(base_auction)
        z = (result.p_hat - stats.p_success) / result.p_hat_se
        assert abs(z) <= 4.0

    def test_dispatch_interval_sides_with_consistent_mode(
        self, base_auction, base_costs, base_policy
    ):
        result = simulate(base_auction, base_costs, base_policy, _config(num_cycles=20000))
        stats = auction_statistics(base_auction)
        se = result.mean_dispatch_interval_se
        z_consistent = (result.mean_dispatch_interval - stats.dispatch_time_consistent) / se
        z_paper = (result.mean_dispatch_interval - stats.dispatch_time_paper) / se
        assert abs(z_consistent) <= 4.0
        assert z_paper < -3.0

    @pytest.mark.parametrize("quantity", [434.0, 250.0, 101.5])
    def test_cost_rate_matches_exact_consistent_analytics(
        self, base_auction, base_costs, quantity
    ):
        # The exact-A consistent-mode rate describes the simulated system
        # for any quantity under reset_to_q, not just near the optimum.
        result = simulate(base_auction, base_costs, Policy(quantity), _config(num_cycles=8000))
        stats = auction_statistics(base_auction)
        analytic = long_run_average_cost(
            stats, base_costs, Policy(quantity), 100, "consistent", "exact"
        )
        se = result.long_run_cost_se
        z = (result.long_run_cost - analytic) / se
        assert abs(z) <= 4.0

    def test_two_samplers_agree(self, base_auction, base_costs, base_policy):
        erlang = simulate(
            base_auction, base_costs, base_policy,
            _config(num_cycles=10000, duration_sampler="erlang"),
        )
        dispatch = simulate(
            base_auction, base_costs, base_policy,
            _config(num_cycles=10000, duration_sampler="dispatch"),
        )
        se = math.hypot(erlang.long_run_cost_se, dispatch.long_run_cost_se)
        z = (erlang.long_run_cost - dispatch.long_run_cost) / se
        assert abs(z) <= 4.0

    def test_halfwidth_shrinks_like_sqrt_n(self, base_auction, base_costs, base_policy):
        lengths = [500, 2000, 8000, 32000]
        widths = [
            simulate(
                base_auction, base_costs, base_policy, _config(num_cycles=n)
            ).long_run_cost_halfwidth
            for n in lengths
        ]
        slope = np.polyfit(np.log(lengths), np.log(widths), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


class TestShortfallRules:
    def test_reset_rule_from_event_log(self, base_auction, base_costs, base_policy):
        buffer = io.StringIO()
        result = simulate(
            base_auction, base_costs, base_policy, _config(num_cycles=50), event_log=buffer
        )
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert len(records) == result.counts.auctions
        assert [r["auction"] for r in records] == list(range(1, len(records) + 1))
        starts = [r["start"] for r in records]
        assert starts == sorted(starts)
        resets = 0
        for record in records:
            assert set(record) == {"auction", "start", "duration", "outcome", "level_after"}
            if record["outcome"] == "failure":
                assert record["duration"] == base_auction.max_time
            else:
                assert record["duration"] < base_auction.max_time
            # Under reset_to_q the level returns to the full quantity at
            # every cycle end and never leaves (0, quantity]. Failures keep
            # the level, so only success records can mark a reset.
            assert 0.0 < record["level_after"] <= base_policy.quantity
            if record["outcome"] == "success" and record["level_after"] == base_policy.quantity:
                resets += 1
        assert resets == result.counts.cycles

    def test_event_log_file_target(self, tmp_path, base_auction, base_costs, base_policy):
        path = tmp_path / "events.jsonl"
        simulate(base_auction, base_costs, base_policy, _config(num_cycles=5), event_log=path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines
        assert json.loads(lines[0])["auction"] == 1

    def test_event_log_bytes_are_pinned(self, base_auction, base_costs):
        buffer = io.StringIO()
        config = _config(num_cycles=3, seed=1, duration_sampler="erlang")
        simulate(base_auction, base_costs, Policy(150.0), config, event_log=buffer)
        assert buffer.getvalue().splitlines(keepends=True) == [
            '{"auction":1,"start":0.0,"duration":6.672132682870467,"outcome":"success",'
            '"level_after":50.0}\n',
            '{"auction":2,"start":6.672132682870467,"duration":6.8423570231715685,'
            '"outcome":"success","level_after":150.0}\n',
            '{"auction":3,"start":13.514489706042035,"duration":5.378116844886666,'
            '"outcome":"success","level_after":50.0}\n',
            '{"auction":4,"start":18.8926065509287,"duration":6.9064473172140115,'
            '"outcome":"success","level_after":150.0}\n',
            '{"auction":5,"start":25.799053868142714,"duration":7.0,"outcome":"failure",'
            '"level_after":150.0}\n',
            '{"auction":6,"start":32.799053868142714,"duration":6.741189747857115,'
            '"outcome":"success","level_after":50.0}\n',
            '{"auction":7,"start":39.54024361599983,"duration":7.0,"outcome":"failure",'
            '"level_after":50.0}\n',
            '{"auction":8,"start":46.54024361599983,"duration":6.587360638544309,'
            '"outcome":"success","level_after":150.0}\n',
        ]

    @pytest.mark.parametrize(
        "quantity,max_time",
        [(150, 7), (np.float64(150.0), np.float64(7.0))],
        ids=["int", "numpy-float64"],
    )
    def test_event_log_lines_are_json_for_other_number_types(
        self, base_costs, quantity, max_time
    ):
        def records(quantity, max_time):
            buffer = io.StringIO()
            auction = AuctionParams(n_required=100, max_time=max_time, arrival_rate=14.0)
            simulate(auction, base_costs, Policy(quantity), _config(num_cycles=20), event_log=buffer)
            return buffer.getvalue().splitlines()

        lines = records(quantity, max_time)
        parsed = [json.loads(line) for line in lines]
        # Each line is exactly what json.dumps writes for its values ...
        assert lines == [json.dumps(record, separators=(",", ":")) for record in parsed]
        # ... and those values equal a run with Python floats.
        assert parsed == [json.loads(line) for line in records(150.0, 7.0)]

    @pytest.mark.parametrize("sampler", ["erlang", "dispatch"])
    def test_int_window_whose_failed_windows_pass_2_to_63(self, base_costs, sampler):
        # p = 0.11 at max_time = 10**18: F * max_time passes 2**63, where
        # int64 arithmetic would wrap. The clock and the log's failed-window
        # starts are float arithmetic, as for max_time = 1e18.
        def run(max_time):
            log = io.StringIO()
            auction = AuctionParams(n_required=100, max_time=max_time, arrival_rate=88.2e-18)
            config = _config(num_cycles=30, duration_sampler=sampler)
            result = simulate(auction, base_costs, Policy(150.0), config, event_log=log)
            return result, [json.loads(line) for line in log.getvalue().splitlines()]

        assert run(10**18) == run(1e18)

    def test_carry_shortfall_shortens_cycles(self, base_auction, base_costs, base_policy):
        reset = simulate(
            base_auction, base_costs, base_policy,
            _config(num_cycles=2000, shortfall_rule="reset_to_q"),
        )
        carry = simulate(
            base_auction, base_costs, base_policy,
            _config(num_cycles=2000, shortfall_rule="carry_shortfall"),
        )
        assert carry != reset
        # Carried shortfall lowers the starting stock, so cycles hold
        # fewer dispatches on average.
        assert carry.mean_cycle_length < reset.mean_cycle_length
        assert carry.counts.dispatches < reset.counts.dispatches

    def test_carry_shortfall_requires_quantity_covering_batch(self, base_auction, base_costs):
        with pytest.raises(ConfigError):
            simulate(
                base_auction, base_costs, Policy(50.0),
                _config(shortfall_rule="carry_shortfall"),
            )


# Designs past the exact stock levels, as (n_required, quantity, rule, cycles),
# with max_time = n_required and arrival_rate 1 (p about 0.5): n past 2**63
# (an int64 OverflowError), n * D past 2**53 under carry_shortfall and Q past
# 2**63 (silent level wraps), and gamma windows that all last n (a hang).
PAST_THE_EXACT_LEVELS = {
    "n-1e19": (10**19, 1e19, "reset_to_q", 2),
    "carry-n-2**50": (2**50, 1.5 * 2**50, "carry_shortfall", 20000),
    "q-2**64": (2**40, 2.0**64, "reset_to_q", 2),
    "n-2**110": (2**110, 2.0**110, "reset_to_q", 2),
    "n-1e300": (10**300, 1e300, "reset_to_q", 2),
}


class TestExactStockLevels:
    @pytest.mark.parametrize(
        "n_required,quantity,rule,cycles", PAST_THE_EXACT_LEVELS.values(),
        ids=PAST_THE_EXACT_LEVELS.keys(),
    )
    def test_runs_past_2_to_53_are_refused_before_drawing(
        self, monkeypatch, base_costs, n_required, quantity, rule, cycles
    ):
        def no_draws(*args):
            raise AssertionError("the run drew")

        monkeypatch.setattr(simulator, "_draw_dispatches", no_draws)
        monkeypatch.setattr(simulator, "_regroup", no_draws)
        auction = AuctionParams(n_required, float(n_required), 1.0)
        config = _config(num_cycles=cycles, shortfall_rule=rule)
        with pytest.raises(NumericsError, match=r"^simulated stock levels are exact up to 2\*\*53"):
            simulate(auction, base_costs, Policy(quantity), config)

    def test_carry_shortfall_levels_at_the_bound_are_exact(self, base_costs):
        # Q = 1.5n + 1 at n = 2**40: 5461 cycles are D = 8192 dispatches, so
        # n * D is 2**53 exactly; one cycle more is refused.
        n, quantity = 2**40, 3 * 2**39 + 1
        auction = AuctionParams(n, float(n), 1.0)
        config = _config(num_cycles=5461, shortfall_rule="carry_shortfall")
        log = io.StringIO()
        result = simulate(auction, base_costs, Policy(float(quantity)), config, event_log=log)
        expected, level = [], quantity
        for _ in range(result.counts.dispatches):
            level -= n
            level += quantity if level <= 0 else 0
            expected.append(level)
        lines = [json.loads(line) for line in log.getvalue().splitlines()]
        assert [line["level_after"] for line in lines if line["outcome"] == "success"] == expected
        assert result.counts.dispatches * n == 2**53
        with pytest.raises(NumericsError, match=r"reaches 9\.01e\+15"):
            simulate(auction, base_costs, Policy(float(quantity)), _config(
                num_cycles=5462, shortfall_rule="carry_shortfall"))

    def test_a_simulated_sweep_cell_past_the_bound_is_an_error_cell(self, base_costs):
        n = 2**110
        spec = SweepSpec((n,), (float(n),), (1.0,), base_costs, simulation=_config(num_cycles=2))
        [row] = run_sweep(spec)
        assert row.q_star_real is not None and row.sim_cost is None
        assert row.error.startswith(
            "simulation: NumericsError: simulated stock levels are exact up to 2**53 units"
        )


class TestDegenerateCosts:
    def test_all_zero_costs_give_zero_rate(self, base_auction, base_policy):
        costs = CostParams(0.0, 0.0, 0.0, 0.0, 0.0)
        result = simulate(base_auction, costs, base_policy, _config(num_cycles=200))
        assert result.long_run_cost == 0.0
        assert result.long_run_cost_halfwidth == 0.0

    def test_transport_only_cost_accounting(self, base_auction, base_policy):
        costs = CostParams(0.0, 3.0, 0.0, 0.0, 0.0)
        result = simulate(base_auction, costs, base_policy, _config(num_cycles=200))
        expected_total = 3.0 * 100 * result.counts.dispatches
        assert result.total_cost == pytest.approx(expected_total, rel=1e-12)


class TestValidation:
    def test_infinite_window_rejected(self, base_costs, base_policy):
        auction = AuctionParams(n_required=100, max_time=math.inf, arrival_rate=14.0)
        with pytest.raises(ConfigError):
            simulate(auction, base_costs, base_policy, _config())

    def test_infinite_window_message_names_the_key(self, base_costs, base_policy):
        auction = AuctionParams(n_required=100, max_time=math.inf, arrival_rate=14.0)
        with pytest.raises(ConfigError, match="^max_time: must be finite for simulation$"):
            simulate(auction, base_costs, base_policy, _config())

    def test_overflowing_clock_raises_before_logging_it(self, monkeypatch, base_costs):
        # p is about 0.5, but 1e307-long windows overflow the clock after
        # about 20 of them; with 7-window batches the first ones are logged.
        monkeypatch.setattr(simulator, "_DRAW_BATCH", 7)
        auction = AuctionParams(n_required=100, max_time=1e307, arrival_rate=1e-305)
        log = io.StringIO()
        with pytest.raises(NumericsError, match="clock overflowed"):
            simulate(auction, base_costs, Policy(434.0), _config(num_cycles=50), event_log=log)
        records = [json.loads(line) for line in log.getvalue().splitlines()]
        assert records
        assert all(math.isfinite(record["start"]) for record in records)
        assert "inf" not in log.getvalue()

    @pytest.mark.parametrize(
        "costs,field",
        [
            # Finite cycle costs whose squared deviations overflow.
            (CostParams(40.0, 4.0, 1e300, 10.0, 300.0), "mean_cycle_cost_se"),
            # Finite cycle costs whose sum overflows.
            (CostParams(40.0, 4.0, 5e303, 10.0, 300.0), "mean_cycle_cost"),
            # Cycle costs that overflow in the accounting itself.
            (CostParams(40.0, 4.0, 0.02, 1e308, 300.0), "mean_cycle_cost"),
        ],
        ids=["overflowing-se", "overflowing-sum", "overflowing-cost"],
    )
    def test_non_finite_estimate_raises(self, base_auction, costs, field):
        # filterwarnings = error also turns any escaped numpy warning into a failure.
        with pytest.raises(NumericsError, match=f"simulated {field} is not finite: inf"):
            simulate(base_auction, costs, Policy(434.0), _config(num_cycles=5))

    def test_work_over_budget_raises_before_drawing(self, monkeypatch, base_costs):
        # About 1e13 dispatches at p = 0.88: without the estimate this run
        # never ends and its per-dispatch arrays grow without limit.
        def no_draws(*args):
            raise AssertionError("dispatches were drawn")

        monkeypatch.setattr(simulator, "_draw_dispatches", no_draws)
        auction = AuctionParams(n_required=100, max_time=8.0, arrival_rate=14.0)
        log = io.StringIO()
        with pytest.raises(NumericsError, match=r"about 1\.13e\+13 bidding windows"):
            simulate(auction, base_costs, Policy(1e15), _config(num_cycles=1), event_log=log)
        assert log.getvalue() == ""

    @pytest.mark.parametrize("budget,refused", [(115, True), (116, False)])
    def test_work_estimate_is_cycles_times_dispatches_over_p(
        self, monkeypatch, base_auction, base_costs, budget, refused
    ):
        # 10 cycles of ceil(434 / 100) = 5 dispatches at p = 0.4333: 115.4 windows.
        monkeypatch.setattr(simulator, "_MAX_DRAWS", budget)
        config = _config(num_cycles=10)
        if refused:
            with pytest.raises(NumericsError, match="about 115 bidding windows"):
                simulate(base_auction, base_costs, Policy(434.0), config)
        else:
            assert simulate(base_auction, base_costs, Policy(434.0), config).counts.cycles == 10

    def test_carry_shortfall_estimate_counts_the_runs_dispatches(self, base_auction):
        # ceil(3e8 * 101 / 100) = 3.03e8 dispatches, about 7e8 windows at
        # p = 0.43: within the budget, where 3e8 cycles of ceil(101 / 100) = 2
        # dispatches would be 1.38e9.
        config = _config(num_cycles=300_000_000, shortfall_rule="carry_shortfall")
        plan = simulator._plan(base_auction, Policy(101.0), config, False)
        assert plan.dispatches == 303_000_000
        assert plan.work < simulator._MAX_DRAWS
        assert plan.unit == "bidding windows (ceil(cycles * quantity / n_required) / p_success)"

    def test_degenerate_design_raises_before_drawing(self):
        # p underflows to 0, so a run would never complete a cycle; the
        # subprocess timeout turns a hang into a failure.
        script = (
            "import groupbuy_inventory as gb\n"
            "auction = gb.AuctionParams(n_required=500, max_time=0.5, arrival_rate=0.5)\n"
            "costs = gb.CostParams(40.0, 4.0, 0.02, 10.0, 300.0)\n"
            "try:\n"
            "    gb.simulate(auction, costs, gb.Policy(434.0), gb.SimulationConfig(1))\n"
            "except gb.DegenerateAuctionError:\n"
            "    print('degenerate')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (0, "degenerate\n"), result.stderr

    def test_tiny_quantity_is_one_dispatch_per_cycle(self):
        # ceil(5e-324 / 100) is 1, where the float ratio underflows to 0: a plan of
        # no dispatches drew nothing, forever. The timeout turns a hang into a failure.
        script = (
            "import groupbuy_inventory as gb\n"
            "auction = gb.AuctionParams(n_required=100, max_time=7.0, arrival_rate=14.0)\n"
            "costs = gb.CostParams(40.0, 4.0, 0.02, 10.0, 300.0)\n"
            "result = gb.simulate(auction, costs, gb.Policy(5e-324), gb.SimulationConfig(3))\n"
            "print(result.counts.cycles, result.counts.dispatches)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stdout) == (0, "3 3\n"), result.stderr

    @pytest.mark.parametrize(
        "design,quantity,planned",
        [((1, 1000.0, 1.0), 3.0, 8), ((120, 6.0, 14.0), 9.0, 2)],
        ids=["windows-p1", "table-p1e-4"],
    )
    def test_draws_that_end_before_the_last_cycle_raise(self, design, quantity, planned):
        # _plan plans one dispatch short. At p = 1 every window dispatches, so the
        # window route draws exactly the planned total, as the table route does.
        script = (
            "import groupbuy_inventory as gb\n"
            "from groupbuy_inventory import simulator\n"
            "plan = simulator._plan\n"
            "def short(*args):\n"
            "    planned = plan(*args)\n"
            "    return planned._replace(dispatches=planned.dispatches - 1)\n"
            "simulator._plan = short\n"
            f"auction = gb.AuctionParams(*{design!r})\n"
            "costs = gb.CostParams(40.0, 4.0, 0.02, 10.0, 300.0)\n"
            "try:\n"
            f"    gb.simulate(auction, costs, gb.Policy({quantity!r}), gb.SimulationConfig(3))\n"
            "except gb.NumericsError as exc:\n"
            "    print(exc)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        expected = f"simulation drew its planned {planned} dispatches and left 1 of 3 cycles open\n"
        assert (result.returncode, result.stdout) == (0, expected), result.stderr

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_cycles=0),
            dict(num_cycles=2.5),
            dict(seed=-1),
            dict(seed=2**64),
            dict(shortfall_rule="bounce"),
            dict(duration_sampler="uniform"),
        ],
    )
    def test_config_validation(self, kwargs):
        base = dict(num_cycles=10, seed=0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            SimulationConfig(**base)

    def test_seed_past_the_int_to_str_limit_is_a_parameter_error(self):
        # str(10**5000) raises ValueError past Python's 4,300-digit limit.
        message = r"^seed must satisfy 0 <= seed < 2\*\*64, got 1\.00e\+5000$"
        with pytest.raises(ParameterError, match=message):
            SimulationConfig(10, seed=10**5000)

    def test_interarrival_sum_is_not_a_sampler(self):
        message = r"^duration_sampler must be one of \('erlang', 'dispatch'\), got 'interarrival_sum'$"
        with pytest.raises(ParameterError, match=message):
            SimulationConfig(10, duration_sampler="interarrival_sum")
