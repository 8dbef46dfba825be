import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from groupbuy_inventory import (
    AuctionParams,
    DegenerateAuctionError,
    DomainError,
    ParameterError,
    SweepSpec,
    auction_statistics,
    erlang_pdf,
    regularized_lower_gamma,
    run_sweep,
    stochastics,
    success_probability,
    success_probability_poisson_tail,
)
from groupbuy_inventory.errors import int_text
from reference_values import (
    BASE_CONDITIONAL,
    BASE_FAILURES,
    BASE_P,
    BASE_TD_CONSISTENT,
    BASE_TD_PAPER,
    BASE_TRUNCATED,
    KERNEL_REFERENCE,
    MC_TD_CONSISTENT_MEAN,
    MC_TD_CONSISTENT_SE,
)


def survival_sum_truncated_mean(params):
    """E[min(S, T)] as the integral of the survival function, an O(n) oracle.

    P(S > t) = sum_{k < n} e^(-rate t) (rate t)^k / k!, and integrating each
    term over [0, T] gives (1 / rate) * sum_{k < n} P(k + 1, rate * T).
    """
    x = params.arrival_rate * params.max_time
    total = math.fsum(regularized_lower_gamma(k + 1.0, x) for k in range(params.n_required))
    return total / params.arrival_rate


def mpmath_truncated_mean(params):
    """E[min(S, T)] from the truncated Erlang identity in 50-digit arithmetic."""
    with mpmath.workdps(50):
        rate = mpmath.mpf(params.arrival_rate)
        window = mpmath.mpf(params.max_time)
        x = rate * window

        def lower(s):
            # mpmath's lower-gamma series stalls above the mode.
            return 1 - mpmath.gammainc(s, x, mpmath.inf, regularized=True)

        n = params.n_required
        return float(n / rate * lower(n + 1) + window * (1 - lower(n)))


def quadrature_reference(s, x):
    """P(s, x) from 50-digit Gauss-Legendre quadrature of the gamma density.

    Integrates over the smaller tail, one step of min(sqrt(s), x / |s - x|)
    at a time, until a step adds under 1e-50 of the total. It shares no
    formula with the kernel, and its cost does not grow with s, where
    mpmath's gammainc sums O(sqrt(s)) terms (minutes at s = 1e15).
    """
    with mpmath.workdps(50):
        shape, edge_x = mpmath.mpf(s), mpmath.mpf(x)
        log_at_x = (shape - 1) * mpmath.log(edge_x) - edge_x - mpmath.loggamma(shape)

        def density(u):
            return mpmath.exp((shape - 1) * mpmath.log1p(u / edge_x) - u + log_at_x)

        step = (-1 if x < s else 1) * min(math.sqrt(s), x / max(abs(s - x), 1.0))
        tail, edge = mpmath.mpf(0), mpmath.mpf(0)
        while True:
            next_edge = max(edge + step, -edge_x)
            piece = abs(mpmath.quad(density, [edge, next_edge], method="gauss-legendre"))
            tail += piece
            edge = next_edge
            if edge == -edge_x or piece < tail * mpmath.mpf(10) ** -50:
                break
        return float(tail if x < s else 1 - tail)


def kernel_lines(s, x):
    """Source lines executed in the stochastics module by one kernel call.

    Every loop iteration of every branch executes at least one line, so
    this counts the call's work without timing it.
    """
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        count += event == "line"
        return count_lines

    def enter(frame, event, arg):
        return count_lines if frame.f_code.co_filename == stochastics.__file__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        regularized_lower_gamma(s, x)
    finally:
        sys.settrace(previous)
    return count


def window_for_probability(n, p):
    """rate * T at which the success probability P(n, rate * T) equals p."""
    lo, hi = 0.0, n + 40.0 * math.sqrt(n) + 40.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if regularized_lower_gamma(float(n), mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestKernel:
    @pytest.mark.parametrize("s,x,expected", KERNEL_REFERENCE)
    def test_matches_high_precision_reference(self, s, x, expected):
        # 1e-12 absolute over the supported domain, 1e-8 in the far tail
        # where the routine only promises graceful degradation.
        tol = 1e-12 if (s <= 1001.0 and x <= 1e4) else 1e-8
        assert regularized_lower_gamma(s, x) == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("s", [1e5, 2.5e5, 5e5, 1e6])
    def test_large_shape_accuracy_near_the_mode(self, s):
        # The documented "roughly 1e-9" toward s = x = 1e6, within three
        # standard deviations sqrt(s) of the Poisson mean.
        for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
            x = s + k * math.sqrt(s)
            with mpmath.workdps(30):
                if x < s:
                    expected = float(mpmath.gammainc(s, 0, x, regularized=True))
                else:
                    # mpmath's lower-gamma series stalls above the mode.
                    expected = float(1 - mpmath.gammainc(s, x, mpmath.inf, regularized=True))
            assert regularized_lower_gamma(s, x) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize(
        "n,x,bound",
        [
            # p in [1e-12, 0.3]: the point Baseline named, and the worst of 18,000 random points.
            (88, 39.03, 1.5e-13),
            (119, 59.2763133127087, 1.5e-13),
            # p near 1e-270, and the worst of 4,500 random points there.
            (150, 0.9, 8.2e-12),
            (1000, 256.33, 8.2e-12),
            (3206, 1600.8972904931259, 8.2e-12),
        ],
    )
    def test_smaller_tail_relative_error_at_integer_shape(self, n, x, bound):
        # README's relative error of the smaller tail, against the exact
        # Poisson sum P(n, x) = sum_{k >= n} e^-x x^k / k! at 40 digits. Here
        # x < n, so the terms fall at least geometrically.
        with mpmath.workdps(40):
            term = mpmath.exp(-mpmath.mpf(x)) * mpmath.mpf(x) ** n / mpmath.factorial(n)
            exact, k = mpmath.mpf(0), n
            while term > exact * mpmath.mpf(10) ** -45:
                exact += term
                k += 1
                term *= mpmath.mpf(x) / k
            error = abs(regularized_lower_gamma(float(n), x) - exact) / exact
        assert error <= bound

    @pytest.mark.parametrize("s", [1e9, 1e12, 1e15])
    def test_huge_shape_accuracy_near_the_mode(self, s):
        # Within 8 sqrt(s) of the mode the uniform expansion was at most
        # 1.1e-16 off the quadrature reference at these shapes.
        for k in (-8.0, -3.0, 0.0, 3.0, 8.0):
            x = s + k * math.sqrt(s)
            assert abs(regularized_lower_gamma(s, x) - quadrature_reference(s, x)) <= 1e-15

    def test_mode_beyond_two_to_the_53(self):
        # s + 1 == s here; the continued fraction used to start from b = 0.
        for s in (2.0**53, 1e16, 2.0**63, 1e300):
            assert regularized_lower_gamma(s, s) == pytest.approx(0.5, abs=1e-8)

    def test_far_tails_at_huge_shape(self):
        # Above 2**53, b += 2 no longer moves the continued fraction's b; at
        # the first point it met its convergence test only after 2,330
        # iterations, by rounding. The prefactor underflows at these points,
        # so the kernel now returns before either loop.
        for s, x in ((113439313950016.56, 6.6191605808781336e16), (1e18, 1e21)):
            assert regularized_lower_gamma(s, x) == 1.0
            assert regularized_lower_gamma(s, s / 600.0) == 0.0

    @pytest.mark.parametrize("s", [20.0, 1e3, 1e6])
    def test_continuous_across_the_expansion_region_edges(self, s):
        # Both edges of |x - s| <= width * s, one float apart: the expansion
        # on one side, the series or the continued fraction on the other.
        width = stochastics._TEMME_WIDTH
        for edge in (s - width * s, s + width * s):
            inside = math.nextafter(edge, s)
            outside = math.nextafter(edge, -s if edge < s else 3.0 * s)
            assert abs(inside - s) <= width * s < abs(outside - s)
            step = abs(regularized_lower_gamma(s, inside) - regularized_lower_gamma(s, outside))
            assert step <= 1e-15

    def test_work_per_call_is_bounded_in_the_shape(self):
        # Lines executed per call, from s = 10 to 1e15, at the mode, at
        # 3 sqrt(s) from it, on both sides of both region edges and far out
        # on both sides; at most 425 here. Before the uniform expansion a
        # call at the mode ran O(sqrt(s)) series iterations: 1,631 lines at
        # s = 1e3 and 4,889 at s = 1e4.
        width = stochastics._TEMME_WIDTH
        counts = {}
        for exponent in range(1, 16):
            s = 10.0**exponent
            points = [s, s - 3.0 * math.sqrt(s), s + 3.0 * math.sqrt(s)]
            for edge in (s - width * s, s + width * s):
                away = -s if edge < s else 3.0 * s
                points += [math.nextafter(edge, s), math.nextafter(edge, away)]
            points += [1e-3 * s, 0.1 * s, 10.0 * s, 1e3 * s]
            counts[s] = max(kernel_lines(s, x) for x in points)
        assert max(counts.values()) <= 600, counts

    def test_memory_per_call_is_bounded_at_large_shape(self):
        # P(1e12, 1e12) once kept its 1e6 series terms in a list: 274 MB.
        for x in (1e12, 0.5e12, 2e12):
            tracemalloc.start()
            try:
                regularized_lower_gamma(1e12, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 64 * 1024

    def test_coefficient_table_matches_its_generator(self):
        script = Path(__file__).resolve().parent.parent / "tools" / "temme_coefficients.py"
        done = subprocess.run(
            [sys.executable, str(script), "--check"], capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stdout + done.stderr

    def test_shape_one_is_exponential_cdf(self):
        for x in (1e-9, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0):
            assert regularized_lower_gamma(1.0, x) == pytest.approx(
                -math.expm1(-x), rel=1e-14, abs=1e-300
            )

    def test_boundary_values(self):
        assert regularized_lower_gamma(3.0, 0.0) == 0.0
        assert regularized_lower_gamma(3.0, math.inf) == 1.0
        assert 0.0 <= regularized_lower_gamma(100.0, 98.0) <= 1.0

    def test_domain_errors(self):
        for s, x in ((0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                     (1.0, -1.0), (1.0, math.nan)):
            with pytest.raises(DomainError):
                regularized_lower_gamma(s, x)

    def test_monotone_in_x(self):
        values = [regularized_lower_gamma(20.0, x) for x in (10.0, 15.0, 20.0, 25.0, 30.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotone_in_s(self):
        values = [regularized_lower_gamma(s, 20.0) for s in (15.0, 18.0, 20.0, 22.0, 25.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=1000),
        mu=st.floats(min_value=1e-6, max_value=1e4, allow_nan=False, allow_infinity=False),
    )
    def test_agrees_with_poisson_tail_route(self, n, mu):
        params = AuctionParams(n_required=n, max_time=1.0, arrival_rate=mu)
        p_gamma = success_probability(params)
        p_poisson = success_probability_poisson_tail(params)
        assert abs(p_gamma - p_poisson) <= 1e-12


class TestSuccessProbability:
    def test_base_value(self, base_auction):
        assert success_probability(base_auction) == pytest.approx(BASE_P, abs=1e-12)

    def test_unbounded_window(self):
        params = AuctionParams(n_required=100, max_time=math.inf, arrival_rate=14.0)
        assert success_probability(params) == 1.0
        assert success_probability_poisson_tail(params) == 1.0

    @pytest.mark.parametrize("n", [1, 5])
    def test_poisson_tail_at_an_empty_and_a_full_window(self, n):
        # rate * T underflows to 0.0 or overflows to inf: the kernel's values, no log of either.
        for rate, expected in ((1e-200, 0.0), (1e200, 1.0)):
            params = AuctionParams(n_required=n, max_time=rate, arrival_rate=rate)
            assert success_probability_poisson_tail(params) == success_probability(params)
            assert success_probability(params) == expected

    def test_strictly_monotone_in_design(self):
        base = dict(n_required=20, max_time=1.5, arrival_rate=10.0)
        by_t = [
            success_probability(AuctionParams(**{**base, "max_time": t}))
            for t in (1.0, 1.5, 2.0, 2.5)
        ]
        assert all(a < b for a, b in zip(by_t, by_t[1:]))
        by_rate = [
            success_probability(AuctionParams(**{**base, "arrival_rate": rate}))
            for rate in (8.0, 10.0, 12.0, 14.0)
        ]
        assert all(a < b for a, b in zip(by_rate, by_rate[1:]))
        by_n = [
            success_probability(AuctionParams(**{**base, "n_required": n}))
            for n in (15, 18, 20, 23, 26)
        ]
        assert all(a > b for a, b in zip(by_n, by_n[1:]))


class TestSuccessPair:
    """p and P(n + 1, rate*T) from one kernel call and the Poisson term."""

    @pytest.mark.parametrize("n", [2**53, 2**53 + 2, 10**16])
    def test_n_plus_one_is_one_poisson_term_less(self, n):
        # n + 1.0 rounds to n or n + 2 here, yet P(n + 1, n) is P(n, n) less the
        # term n^n e^-n / n! = (1 + O(1/n)) / sqrt(2 pi n), so E[min(S, T)] at
        # rate 1 and T = n is n - sqrt(n / (2 pi)), not n.
        params = AuctionParams(n_required=n, max_time=float(n), arrival_rate=1.0)
        expected = regularized_lower_gamma(float(n), float(n))
        assert success_probability(params) == expected
        stats = auction_statistics(params)
        assert stats.p_success == expected
        assert stats.e_min_duration == pytest.approx(n - math.sqrt(n / (2.0 * math.pi)), rel=1e-15)

    @pytest.mark.parametrize("n", [2**53, 2**53 + 2, 10**16, 2**60, 3 * 2**58])
    def test_matches_quadrature_past_two_to_the_53(self, n):
        for k in (-3.0, 0.0, 3.0):
            x = n + k * math.sqrt(n)
            stats = auction_statistics(AuctionParams(n_required=n, max_time=x, arrival_rate=1.0))
            # The int shapes n and n + 1, which one float does not tell apart.
            p_ref, p_next_ref = quadrature_reference(n, x), quadrature_reference(n + 1, x)
            with mpmath.workdps(60):
                shape, window = mpmath.mpf(n), mpmath.mpf(x)
                term = mpmath.exp(shape * mpmath.log(window) - window - mpmath.loggamma(shape + 1))
                # The references are one Poisson term apart, to their rounding.
                assert abs(p_ref - p_next_ref - term) <= 1e-4 * term
                p, p_next = mpmath.mpf(p_ref), mpmath.mpf(p_next_ref)
                e_min = shape * p_next + window * (1 - p)
                window_failures = window * (1 - p) / p
                # The dispatch times also carry the kernel's own error in p, which
                # reaches 2e-15 relative at k = -3 (p = 1.35e-3).
                td_bound = 1e-15 + 2 * abs(stats.p_success - p_ref) / p_ref
                for computed, reference, bound in (
                    (stats.e_min_duration, e_min, 1e-15),
                    (stats.dispatch_time_paper, window_failures + e_min, td_bound),
                    (stats.dispatch_time_consistent, window_failures + shape * p_next / p, td_bound),
                ):
                    assert abs(computed - reference) <= bound * reference

    @pytest.mark.parametrize("n", [10, 100, 1000, 10**4, 10**6, 10**9, 10**12, 10**15])
    def test_matches_quadrature_near_the_mode(self, n):
        for k in (-3.0, 0.0, 3.0):
            params = AuctionParams(n_required=n, max_time=n + k * math.sqrt(n), arrival_rate=1.0)
            x = params.max_time
            p_ref = quadrature_reference(float(n), x)
            p_next_ref = quadrature_reference(n + 1.0, x)
            stats = auction_statistics(params)
            # The kernel's own bounds near the mode: 4.1e-15 below s = 20.
            assert abs(stats.p_success - p_ref) <= (5e-15 if n < 20 else 1e-15)
            e_min_ref = n * p_next_ref + x * (1.0 - p_ref)
            assert stats.e_min_duration == pytest.approx(e_min_ref, rel=1e-11)

    def test_kernel_value_from_n_plus_one_on(self):
        for n in (1, 10, 100, 10**4):
            for x in (n + 1.0, 1.5 * n + 1.0, 10.0 * n):
                params = AuctionParams(n_required=n, max_time=x, arrival_rate=1.0)
                assert success_probability(params) == regularized_lower_gamma(float(n), x)

    def test_window_at_zero_and_infinity_takes_the_kernel_values(self):
        # rate * T underflows to 0.0 or overflows to inf: no log of either.
        for n in (1, 30, 10**6):
            empty = AuctionParams(n_required=n, max_time=1e-200, arrival_rate=1e-200)
            assert success_probability(empty) == regularized_lower_gamma(float(n), 0.0) == 0.0
            with pytest.raises(DegenerateAuctionError):
                auction_statistics(empty)
            full = AuctionParams(n_required=n, max_time=1e200, arrival_rate=1e200)
            assert success_probability(full) == regularized_lower_gamma(float(n), math.inf) == 1.0
            stats = auction_statistics(full)
            assert stats.p_success == 1.0
            assert stats.e_min_duration == stats.e_cond_duration == n / 1e200


class TestErlangPdf:
    def test_at_zero(self):
        single = AuctionParams(n_required=1, max_time=5.0, arrival_rate=3.0)
        batch = AuctionParams(n_required=4, max_time=5.0, arrival_rate=3.0)
        assert erlang_pdf(0.0, single) == 3.0
        assert erlang_pdf(0.0, batch) == 0.0

    def test_matches_direct_formula_small_n(self):
        for n in (1, 2, 3, 5, 8):
            params = AuctionParams(n_required=n, max_time=5.0, arrival_rate=2.5)
            for t in (0.1, 0.7, 1.9, 4.0):
                lam = params.arrival_rate
                direct = lam * math.exp(-lam * t) * (lam * t) ** (n - 1) / math.factorial(n - 1)
                assert erlang_pdf(t, params) == pytest.approx(direct, rel=1e-13)

    def test_integrates_to_one(self):
        for n, rate in ((1, 0.5), (5, 2.0), (40, 7.0)):
            params = AuctionParams(n_required=n, max_time=1.0, arrival_rate=rate)
            total, err = integrate.quad(lambda t: erlang_pdf(t, params), 0.0, math.inf)
            assert total == pytest.approx(1.0, abs=max(1e-9, 10.0 * err))

    def test_domain(self):
        params = AuctionParams(n_required=3, max_time=1.0, arrival_rate=1.0)
        with pytest.raises(DomainError):
            erlang_pdf(-0.1, params)
        with pytest.raises(DomainError):
            erlang_pdf(math.nan, params)
        assert erlang_pdf(math.inf, params) == 0.0

    def test_rate_times_t_at_zero_and_infinity(self):
        # rate * t underflows to 0.0 (the density at t = 0) or overflows to inf.
        for n, at_zero in ((1, 1e-200), (5, 0.0)):
            tiny = AuctionParams(n_required=n, max_time=1e-200, arrival_rate=1e-200)
            assert erlang_pdf(1e-300, tiny) == erlang_pdf(0.0, tiny) == at_zero
            huge = AuctionParams(n_required=n, max_time=1e200, arrival_rate=1e200)
            assert erlang_pdf(1e300, huge) == 0.0

    @pytest.mark.parametrize("n", [3_000, 10**5, 10**7])
    def test_relative_error_near_the_mode(self, n):
        # The density shares the kernel's x^n e^-x / Gamma(n); within 6 sqrt(n)
        # of the mode its error is that of rounding rate * t, |n - rate t| eps.
        rng = random.Random(n)
        worst = 0.0
        for _ in range(700):
            rate = 10.0 ** rng.uniform(-2.0, 2.0)
            t = (n - 1 + rng.uniform(-6.0, 6.0) * math.sqrt(n)) / rate
            params = AuctionParams(n_required=n, max_time=1.0, arrival_rate=rate)
            with mpmath.workdps(40):
                lam = mpmath.mpf(rate)
                x = lam * mpmath.mpf(t)
                exact = lam * mpmath.exp((n - 1) * mpmath.log(x) - x - mpmath.loggamma(n))
                worst = max(worst, float(abs(erlang_pdf(t, params) / exact - 1)))
        assert worst < 1e-11


class TestDurations:
    def test_base_truncated_mean(self, base_auction):
        stats = auction_statistics(base_auction)
        assert stats.e_min_duration == pytest.approx(BASE_TRUNCATED, abs=1e-9)

    def test_base_conditional_matches_quadrature_pin(self, base_auction):
        stats = auction_statistics(base_auction)
        assert stats.e_cond_duration == pytest.approx(BASE_CONDITIONAL, abs=1e-9)

    def test_base_expected_failures(self, base_auction):
        stats = auction_statistics(base_auction)
        assert stats.expected_failures == pytest.approx(BASE_FAILURES, abs=1e-9)
        # Display-precision route: (1 - 0.4333) / 0.4333.
        assert stats.expected_failures == pytest.approx((1.0 - 0.4333) / 0.4333, abs=2e-4)

    def test_base_dispatch_times(self, base_auction):
        stats = auction_statistics(base_auction)
        assert stats.dispatch_time_paper == pytest.approx(BASE_TD_PAPER, abs=1e-9)
        assert stats.dispatch_time_consistent == pytest.approx(BASE_TD_CONSISTENT, abs=1e-9)

    def test_consistent_mode_matches_monte_carlo_pin(self, base_auction):
        stats = auction_statistics(base_auction)
        assert abs(stats.dispatch_time_consistent - MC_TD_CONSISTENT_MEAN) <= (
            3.0 * MC_TD_CONSISTENT_SE
        )
        # td_mode="paper" sits far outside the same Monte Carlo band.
        assert abs(stats.dispatch_time_paper - MC_TD_CONSISTENT_MEAN) > (
            10.0 * MC_TD_CONSISTENT_SE
        )

    def test_quadrature_equivalence_small_n(self):
        # Truncated mean as quad of t*f(t) on [0, T] plus T * P(S >= T),
        # success probability as quad of f(t); independent of the kernel.
        for n in (1, 2, 3, 5, 10):
            for max_time, rate in ((0.8, 1.0), (2.0, 2.5), (5.0, 1.5)):
                params = AuctionParams(n_required=n, max_time=max_time, arrival_rate=rate)
                p_quad, _ = integrate.quad(lambda t: erlang_pdf(t, params), 0.0, max_time)
                mean_quad, _ = integrate.quad(
                    lambda t: t * erlang_pdf(t, params), 0.0, max_time
                )
                truncated_quad = mean_quad + max_time * (1.0 - p_quad)
                stats = auction_statistics(params)
                assert success_probability(params) == pytest.approx(p_quad, abs=1e-10)
                assert stats.e_min_duration == pytest.approx(truncated_quad, abs=1e-10)
                if p_quad > 0.0:
                    assert stats.e_cond_duration == pytest.approx(mean_quad / p_quad, abs=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(
        log_n=st.floats(min_value=0.0, max_value=4.0),
        log_odds=st.floats(min_value=-6.0, max_value=6.0),
        rate=st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
    )
    @example(log_n=4.0, log_odds=-6.0, rate=14.0)
    @example(log_n=4.0, log_odds=0.0, rate=14.0)
    @example(log_n=4.0, log_odds=6.0, rate=14.0)
    # n = 7437 at rate * T = 7442.6, where a direct log-space prefactor was
    # 1.01e-11 relative off.
    @example(log_n=3.871404546110276, log_odds=0.04771982229692284, rate=1.0)
    def test_truncated_mean_closed_form_identity(self, log_n, log_odds, rate):
        # The O(1) identity (n/rate) * P(n+1, rate*T) + T * (1 - P(n, rate*T))
        # against the O(n) survival-function sum, for n up to 1e4 and success
        # probabilities from about 1e-6 to 1 - 1e-6.
        n = round(10.0**log_n)
        p = 1.0 / (1.0 + 10.0**-log_odds)
        params = AuctionParams(
            n_required=n, max_time=window_for_probability(n, p) / rate, arrival_rate=rate
        )
        value = auction_statistics(params).e_min_duration
        assert value == pytest.approx(survival_sum_truncated_mean(params), rel=1e-11)

    @pytest.mark.parametrize("n", [10, 100, 1000, 5000])
    def test_truncated_mean_matches_mpmath(self, n):
        for k in (-3.0, -1.0, 0.0, 1.0, 3.0):
            params = AuctionParams(
                n_required=n, max_time=(n + k * math.sqrt(n)) / 14.0, arrival_rate=14.0
            )
            stats = auction_statistics(params)
            assert stats.e_min_duration == pytest.approx(mpmath_truncated_mean(params), rel=1e-11)

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        max_time=st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
        rate=st.floats(min_value=0.05, max_value=50.0, allow_nan=False),
    )
    def test_duration_sandwich(self, n, max_time, rate):
        params = AuctionParams(n_required=n, max_time=max_time, arrival_rate=rate)
        try:
            stats = auction_statistics(params)
        except DegenerateAuctionError:
            assume(False)
            return
        conditional, truncated = stats.e_cond_duration, stats.e_min_duration
        slack = 1e-12 * max(1.0, truncated)
        assert 0.0 < conditional <= truncated + slack
        assert truncated <= min(max_time, n / rate) + slack


class TestDispatchTime:
    def test_paper_exceeds_consistent_when_failure_possible(self, base_auction):
        stats = auction_statistics(base_auction)
        assert stats.dispatch_time_paper > stats.dispatch_time_consistent

    def test_mode_validation(self, base_auction):
        with pytest.raises(ParameterError):
            stochastics.select_dispatch_time(auction_statistics(base_auction), "typo")

    def test_unbounded_limit(self):
        params = AuctionParams(n_required=100, max_time=math.inf, arrival_rate=14.0)
        stats = auction_statistics(params)
        assert stats.dispatch_time_paper == 100 / 14.0
        assert stats.dispatch_time_consistent == 100 / 14.0

    def test_long_window_approaches_limit(self):
        params = AuctionParams(n_required=100, max_time=1e5, arrival_rate=14.0)
        stats = auction_statistics(params)
        limit = 100 / 14.0
        assert stats.dispatch_time_paper == pytest.approx(limit, rel=1e-12)
        assert stats.dispatch_time_consistent == pytest.approx(limit, rel=1e-12)


class TestAuctionStatistics:
    def test_fields_match_individual_operations(self, base_auction):
        stats = auction_statistics(base_auction)
        assert stats.p_success == success_probability(base_auction)

    def test_unbounded_window(self):
        stats = auction_statistics(AuctionParams(n_required=7, max_time=math.inf, arrival_rate=2.0))
        assert stats.p_success == 1.0
        assert stats.expected_failures == 0.0
        assert stats.e_min_duration == stats.e_cond_duration == 3.5
        assert stats.dispatch_time_paper == stats.dispatch_time_consistent == 3.5

    def test_degenerate_design_raises(self):
        params = AuctionParams(n_required=500, max_time=0.5, arrival_rate=0.5)
        with pytest.raises(DegenerateAuctionError):
            auction_statistics(params)


class TestWorkCounts:
    @staticmethod
    def _count_calls(monkeypatch, name):
        calls = []
        original = getattr(stochastics, name)

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(stochastics, name, counting)
        return calls

    @pytest.mark.parametrize("n", [10, 10_000, 2**53])
    def test_auction_statistics_makes_one_kernel_call(self, monkeypatch, n):
        calls = self._count_calls(monkeypatch, "regularized_lower_gamma")
        # Below and above rate * T = n + 1, where the Poisson term is added or taken.
        for window in (n / 14.0, 1.5 * n / 14.0):
            calls.clear()
            auction_statistics(AuctionParams(n_required=n, max_time=window, arrival_rate=14.0))
            assert len(calls) == 1

    def test_auction_statistics_computes_p_once(self, monkeypatch, base_auction):
        calls = self._count_calls(monkeypatch, "_success_pair")
        auction_statistics(base_auction)
        assert len(calls) == 1

    def test_sweep_at_large_batch_size_finishes(self, base_costs):
        rows = run_sweep(SweepSpec(
            n_values=(100_000, 101_000),
            t_values=(7200.0, 7300.0),
            lambda_values=(14.0,),
            costs=base_costs,
        ))
        assert len(rows) == 4
        assert all(row.error is None for row in rows)


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_required=0, max_time=1.0, arrival_rate=1.0),
            dict(n_required=-3, max_time=1.0, arrival_rate=1.0),
            dict(n_required=True, max_time=1.0, arrival_rate=1.0),
            dict(n_required=2.0, max_time=1.0, arrival_rate=1.0),
            dict(n_required=10**400, max_time=1.0, arrival_rate=1.0),
            dict(n_required=2, max_time=0.0, arrival_rate=1.0),
            dict(n_required=2, max_time=-1.0, arrival_rate=1.0),
            dict(n_required=2, max_time=math.nan, arrival_rate=1.0),
            dict(n_required=2, max_time=1.0, arrival_rate=0.0),
            dict(n_required=2, max_time=1.0, arrival_rate=-2.0),
            dict(n_required=2, max_time=1.0, arrival_rate=math.inf),
            dict(n_required=2, max_time=1.0, arrival_rate=math.nan),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ParameterError):
            AuctionParams(**kwargs)

    def test_infinite_window_is_legal(self):
        params = AuctionParams(n_required=2, max_time=math.inf, arrival_rate=1.0)
        assert params.unbounded

    def test_n_required_past_the_int_to_str_limit_is_a_parameter_error(self):
        # str(-10**5000) raises ValueError past Python's 4,300-digit limit.
        with pytest.raises(ParameterError, match=r"^n_required must be >= 1, got -1\.00e\+5000$"):
            AuctionParams(-10**5000, 7.0, 14.0)

    @pytest.mark.parametrize(
        "value,text",
        [
            (0, "0"),
            (-7, "-7"),
            (10**4299, "1" + "0" * 4299),
            (-(10**4299), "-1" + "0" * 4299),
            (10**4300, "1.00e+4300"),
            (-(2**20000), "-3.98e+6020"),
            (10**6000 - 1, "9.99e+5999"),
        ],
        ids=["zero", "negative", "4300-digits", "negative-4300-digits", "4301-digits",
             "power-of-two", "truncated"],
    )
    def test_int_text_is_str_up_to_the_digit_limit(self, value, text):
        assert int_text(value) == text
