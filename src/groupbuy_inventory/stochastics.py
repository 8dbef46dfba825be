"""Closed-form statistics of batch auctions fed by Poisson bidder arrivals.

An auction succeeds when ``n_required`` bidders arrive within a window of
length ``max_time``. Bidders arrive as a Poisson process, so the arrival
instant of the final required bidder is Erlang distributed and every
quantity of interest reduces to evaluations of the regularized lower
incomplete gamma function. That kernel is implemented here directly: a
power series for small arguments, a continued fraction elsewhere, both
scaled through a log-space prefactor so that shape and argument values up
to about 1e6 stay inside double range.

Two notions of "expected time until a dispatch" coexist and both are kept:

* ``paper`` mode sums the expected number of failed windows with the
  unconditional truncated mean E[min(S, T)] of the closing window.
* ``consistent`` mode uses the conditional mean E[S | S < T] for the
  closing window, which is what a renewal argument actually yields.

The two collapse to ``n_required / arrival_rate`` as the window grows
unbounded, and they stay within a fraction of a percent of each other for
designs whose success probability is not small, but they are distinct
quantities. Downstream cost code takes the choice as an explicit mode
argument rather than silently preferring one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

from .errors import DegenerateAuctionError, DomainError, NumericsError, ParameterError
from .errors import check_choice, check_int

TdMode = Literal["paper", "consistent"]

TD_MODES: tuple[str, ...] = ("paper", "consistent")

# Below this success probability the expected failure count overflows any
# sensible budget and conditional quantities lose all precision.
MIN_SUCCESS_PROBABILITY = 1e-300

_EPS = 1e-16
_FPMIN = 1e-300
# exp() underflows to 0.0 for arguments below roughly -745.
_LOG_UNDERFLOW = -745.0


@dataclass(frozen=True)
class AuctionParams:
    """Design of one group-buying auction.

    n_required: bidders needed for the auction to clear (the batch size).
    max_time: length of the bidding window; ``math.inf`` means the window
        never closes and the auction always eventually succeeds.
    arrival_rate: Poisson rate at which bidders arrive.
    """

    n_required: int
    max_time: float
    arrival_rate: float

    def __post_init__(self) -> None:
        check_int("n_required", self.n_required, 1)
        if math.isnan(self.max_time) or self.max_time <= 0.0:
            raise ParameterError(f"max_time must be > 0 (math.inf allowed), got {self.max_time}")
        if not math.isfinite(self.arrival_rate) or self.arrival_rate <= 0.0:
            raise ParameterError(f"arrival_rate must be finite and > 0, got {self.arrival_rate}")

    @property
    def unbounded(self) -> bool:
        """True when the bidding window never closes."""
        return math.isinf(self.max_time)


@dataclass(frozen=True)
class AuctionStatistics:
    """Closed-form summary of one auction design.

    p_success: probability the window closes with a full batch.
    e_min_duration: E[min(S, T)], the unconditional expected length of a
        single bidding window (S is the arrival time of the last required
        bidder, T the window length).
    e_cond_duration: E[S | S < T], expected window length given success.
    expected_failures: expected number of failed windows preceding each
        successful one, (1 - p) / p.
    dispatch_time_paper: expected time between consecutive dispatches using
        the truncated mean for the closing window.
    dispatch_time_consistent: same quantity using the conditional mean.
    """

    p_success: float
    e_min_duration: float
    e_cond_duration: float
    expected_failures: float
    dispatch_time_paper: float
    dispatch_time_consistent: float


def _max_iterations(s: float) -> int:
    # The series needs O(x - s) terms near the series/fraction crossover and
    # O(sqrt(s)) slack for very large shapes; this cap covers s up to ~1e6.
    return 2000 + int(20.0 * math.sqrt(s))


def _log_prefactor(s: float, x: float) -> float:
    # log(x^s e^-x / Gamma(s)). The direct form loses s*log(s)*eps to
    # cancellation; with Stirling's series for lgamma(s) it is s*(log1p(d) - d)
    # plus small terms, d = (x - s)/s. Five terms are off by under 3e-16 for
    # s >= 15, and x >= s/2 keeps log1p away from its pole.
    if s >= 15.0 and x >= 0.5 * s:
        d = (x - s) / s
        inv2 = 1.0 / (s * s)
        stirlerr = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))) / s
        return s * (math.log1p(d) - d) + 0.5 * math.log(s / (2.0 * math.pi)) - stirlerr
    return s * math.log(x) - x - math.lgamma(s)


def _lower_series(s: float, x: float) -> float:
    # gamma*(s,x) series: sum_k x^k / (s (s+1) ... (s+k)), valid for x < s+1.
    term = 1.0 / s
    terms = [term]
    total = term
    denom = s
    for _ in range(_max_iterations(s)):
        denom += 1.0
        term *= x / denom
        terms.append(term)
        total += term
        if term <= total * _EPS:
            break
    else:
        raise NumericsError(f"incomplete-gamma series did not converge for s={s!r}, x={x!r}")
    return math.fsum(terms)


def _upper_continued_fraction(s: float, x: float) -> float:
    # Modified Lentz evaluation of the upper-tail continued fraction,
    # valid (and fast) for x >= s + 1.
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _max_iterations(s) + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    else:
        raise NumericsError(f"incomplete-gamma continued fraction did not converge for s={s!r}, x={x!r}")
    return h


def regularized_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(s, x).

    P(s, x) = (1 / Gamma(s)) * integral_0^x u^(s-1) e^(-u) du, which for
    integer s equals the probability that a Poisson(x) count reaches s.
    Uses the power series for x < s + 1 and the complement of a continued
    fraction otherwise. Against 30-digit references the absolute error was
    at most 1.4e-15 for s <= 1e3, x <= 1e4, 4e-15 for s < 1e5 within
    8 sqrt(s) of the mode and 6.4e-15 toward s = x = 1e6; no overflow.
    """
    if math.isnan(s) or not 0.0 < s or math.isinf(s):
        raise DomainError(f"shape s must be finite and > 0, got {s!r}")
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"argument x must be >= 0, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    lower = x < s + 1.0
    tail = _lower_series(s, x) if lower else _upper_continued_fraction(s, x)
    log_pref = _log_prefactor(s, x)
    if log_pref < _LOG_UNDERFLOW:
        return 0.0 if lower else 1.0
    prefactor = math.exp(log_pref)
    if lower:
        return min(1.0, tail * prefactor)
    return max(0.0, 1.0 - prefactor * tail)


def success_probability(params: AuctionParams) -> float:
    """Probability that the required bidders arrive before the window closes.

    Equals P(n_required, arrival_rate * max_time); 1.0 for an unbounded
    window.
    """
    if params.unbounded:
        return 1.0
    return regularized_lower_gamma(float(params.n_required), params.arrival_rate * params.max_time)


def success_probability_poisson_tail(params: AuctionParams) -> float:
    """Success probability via log-space summation of the Poisson pmf.

    Computes 1 - sum_{k < n_required} e^(-mu) mu^k / k! with each term
    exponentiated from log space, mu = arrival_rate * max_time. This shares
    no code with the incomplete-gamma kernel and exists as an independent
    cross-check route; the two agree to 1e-12 absolute over
    n_required <= 1e3 and mu <= 1e4.
    """
    if params.unbounded:
        return 1.0
    mu = params.arrival_rate * params.max_time
    log_mu = math.log(mu)
    terms = []
    for k in range(params.n_required):
        log_term = k * log_mu - mu - math.lgamma(k + 1.0)
        terms.append(0.0 if log_term < _LOG_UNDERFLOW else math.exp(log_term))
    return min(1.0, max(0.0, 1.0 - math.fsum(terms)))


def erlang_pdf(t: float, params: AuctionParams) -> float:
    """Density at t of the arrival instant of the final required bidder.

    The n-th arrival of a Poisson(rate) process has the Erlang density
    rate * e^(-rate*t) * (rate*t)^(n-1) / (n-1)!. Evaluated in log space;
    at t = 0 the density is arrival_rate for n_required = 1 and 0 otherwise.
    """
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    if math.isinf(t):
        return 0.0
    lam = params.arrival_rate
    n = params.n_required
    if t == 0.0:
        return lam if n == 1 else 0.0
    log_density = math.log(lam) - lam * t + (n - 1.0) * math.log(lam * t) - math.lgamma(float(n))
    if log_density < _LOG_UNDERFLOW:
        return 0.0
    return math.exp(log_density)


def _nondegenerate_success_probability(params: AuctionParams) -> float:
    p = success_probability(params)
    if p < MIN_SUCCESS_PROBABILITY:
        raise DegenerateAuctionError(
            f"success probability underflowed ({p!r}) for {params}; design is degenerate"
        )
    return p


def auction_statistics(params: AuctionParams) -> AuctionStatistics:
    """Compute the full closed-form summary for one auction design.

    Two kernel calls, P(n, rate*T) and P(n + 1, rate*T), for any n_required.
    The truncated Erlang identity E[min(S, T)] = (n / rate) * P(n + 1, rate*T)
    + T * (1 - p) is within 1e-14 relative of 50-digit references for
    n_required in [10, 1e5) and rate*T within 4 sqrt(n) of n. For
    an unbounded window every duration field equals
    n_required / arrival_rate, p_success is 1.0 and expected_failures 0.0.
    Raises DegenerateAuctionError when the success probability underflows.
    """
    if params.unbounded:
        limit = params.n_required / params.arrival_rate
        return AuctionStatistics(
            p_success=1.0,
            e_min_duration=limit,
            e_cond_duration=limit,
            expected_failures=0.0,
            dispatch_time_paper=limit,
            dispatch_time_consistent=limit,
        )
    p = _nondegenerate_success_probability(params)
    # A kernel call of its own for P(n_required + 1, rate * T): the recurrence
    # P(n, x) - e^(-x) x^n / n! cancels badly when rate * T is far below
    # n_required.
    p_next = regularized_lower_gamma(params.n_required + 1.0, params.arrival_rate * params.max_time)
    trunc = (params.n_required / params.arrival_rate) * p_next + params.max_time * (1.0 - p)
    cond = (params.n_required / params.arrival_rate) * p_next / p
    failures = (1.0 - p) / p
    return AuctionStatistics(
        p_success=p,
        e_min_duration=trunc,
        e_cond_duration=cond,
        expected_failures=failures,
        dispatch_time_paper=failures * params.max_time + trunc,
        dispatch_time_consistent=cond + failures * params.max_time,
    )


def select_dispatch_time(stats: AuctionStatistics, mode: TdMode) -> float:
    """Pick the dispatch-time field of stats matching mode."""
    check_choice("td_mode", mode, TD_MODES)
    if mode == "paper":
        return stats.dispatch_time_paper
    return stats.dispatch_time_consistent
