"""Closed-form statistics of batch auctions fed by Poisson bidder arrivals.

An auction succeeds when ``n_required`` bidders arrive within a window of
length ``max_time``. Bidders arrive as a Poisson process, so the arrival
instant of the final required bidder is Erlang distributed and every
quantity of interest reduces to evaluations of the regularized lower
incomplete gamma function. That kernel is implemented here directly, in
three branches: Temme's uniform asymptotic expansion in the bulk of the
distribution (shape s >= 20 and argument within 0.4 s of s), a power
series below it and a continued fraction above it, the last two scaled
through a log-space prefactor. Every branch does a bounded amount of work
at every shape, and no finite shape or argument overflows.

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
import sys
from typing import Literal, get_args

from .errors import DegenerateAuctionError, DomainError, NumericsError, ParameterError
from .errors import check_choice, check_float, check_int, check_positive, record

TdMode = Literal["paper", "consistent"]

TD_MODES: tuple[str, ...] = get_args(TdMode)

# Below this success probability the expected failure count overflows any
# sensible budget and conditional quantities lose all precision.
MIN_SUCCESS_PROBABILITY = 1e-300

_EPS = 1e-16
_FPMIN = 1e-300
# exp() underflows to 0.0 for arguments below roughly -745.
_LOG_UNDERFLOW = -745.0


@record
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
        # Every formula takes n_required as a float.
        check_int("n_required", self.n_required, 1, sys.float_info.max)
        if math.isnan(self.max_time) or self.max_time <= 0.0:
            raise ParameterError(f"max_time must be > 0 (math.inf allowed), got {self.max_time}")
        check_positive("arrival_rate", self.arrival_rate)

    @property
    def unbounded(self) -> bool:
        """True when the bidding window never closes."""
        return math.isinf(self.max_time)


@record
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


# Outside the uniform expansion's region, and where the prefactor does not
# underflow, the series and the continued fraction converge geometrically
# at every s. Measured worst cases: 71 series iterations (x = 0.6 s) and 21
# fraction iterations for s >= _TEMME_MIN_SHAPE; 50 series iterations below
# it, and about 110 fraction iterations for s < 1 near x = s + 1.
_MAX_ITERATIONS = 300

# Temme's uniform expansion: constants generated by tools/temme_coefficients.py
# (run it with --check after editing this block).
_TEMME_MIN_SHAPE = 20.0
_TEMME_WIDTH = 0.4
# Taylor coefficients of C_k(eta) about eta = 0, row k = C_k, lowest degree first.
_TEMME_COEFFICIENTS = (
    (
        -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
        0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
        3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
        8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
        1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
        -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
        -5.0276692801141755e-12,
    ),
    (
        -0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
        -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
        -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
        4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
        1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09,
        4.162792991842583e-10, -8.56390702649298e-11,
    ),
    (
        0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
        2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
        -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
        -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
        -1.409252991086752e-08, 6.228974084922022e-09, -1.3670488396617114e-09,
    ),
    (
        0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
        0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
        1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
        -2.7861080291528143e-11, -1.6958404091930278e-07, 8.099464905388083e-08,
        -1.9111168485973655e-08, 2.3928620439808118e-12, 2.0620131815488797e-09,
    ),
    (
        -0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
        -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
        1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06,
        8.907507532205309e-07, -2.292934834000805e-07, 2.956794137544049e-11,
        2.8865829742708783e-08, -1.4189739437803219e-08,
    ),
    (
        -0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
        -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
        -1.3594048189768693e-05, 8.018470256334202e-06, -2.291481176508095e-06,
        -3.252473551298454e-10, 3.4652846491085265e-07, -1.8447187191171344e-07,
    ),
    (
        0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
        7.902353232660328e-07, -8.153969367561969e-05, 5.61168275310625e-05,
        -1.8329116582843375e-05, -3.0796134506033047e-09, 3.465155368803609e-06,
        -2.0291327396058603e-06, 5.788792863149004e-07,
    ),
    (
        0.00034436760689237765, 5.171790908260592e-05, -0.00033493161081142234,
        0.0002812695154763237, -0.00010976582244684731, -1.2741009095484485e-07,
        2.7744451511563645e-05, -1.8263488805711332e-05, 5.7876949497350525e-06,
    ),
    (
        -0.0006526239185953094, 0.0008394987206720873, -0.000438297098541721,
        -6.969091458420552e-07, 0.00016644846642067547, -0.00012783517679769218,
        4.629953263691304e-05,
    ),
    (
        -0.0005967612901927463, -7.204895416020011e-05, 0.0006782308837667328,
        -0.0006401475260262758, 0.00027750107634328704,
    ),
    (
        0.0013324454494800656, -0.0019144384985654776, 0.0011089369134596636,
    ),
)
# Terms of each C_k used for shapes in [10^d, 10^(d+1)), d = 1, 2, ... (the
# last band also covers every larger shape), then for |eta| < 2^-(j+1),
# j = 0, 1, ... (the last class also covers every smaller |eta|).
_TEMME_TERMS = (
    (
        (19, 17, 15, 15, 14, 12, 11, 9, 7, 5, 3),
        (14, 13, 11, 11, 10, 9, 7, 7, 6, 4, 3),
        (11, 11, 10, 9, 7, 7, 6, 5, 3, 3, 2),
        (10, 9, 7, 7, 6, 5, 5, 4, 3, 3, 2),
        (8, 8, 7, 5, 6, 5, 3, 4, 3, 2, 2),
        (7, 7, 6, 5, 5, 4, 3, 3, 2, 1, 1),
    ),
    (
        (18, 16, 14, 12, 10, 7, 3),
        (14, 13, 11, 9, 7, 5, 3),
        (11, 9, 9, 7, 6, 4, 2),
        (10, 8, 7, 5, 5, 3, 2),
        (8, 7, 6, 5, 3, 3, 2),
        (7, 5, 5, 4, 3, 2, 2),
    ),
    (
        (18, 15, 11, 8, 3),
        (14, 12, 9, 5, 3),
        (11, 9, 7, 5, 2),
        (10, 8, 6, 4, 2),
        (8, 7, 5, 3, 2),
        (7, 5, 4, 3, 2),
    ),
    (
        (17, 13, 7, 4),
        (14, 11, 7, 3),
        (11, 8, 6, 2),
        (9, 7, 5, 2),
        (8, 5, 3, 1),
        (7, 5, 3, 1),
    ),
    (
        (11, 8, 3),
        (11, 8, 3),
        (11, 8, 3),
        (9, 5, 3),
        (8, 5, 3),
        (7, 5, 3),
    ),
    (
        (8, 5, 2),
        (8, 5, 2),
        (8, 5, 2),
        (8, 5, 2),
        (8, 5, 2),
        (7, 4, 2),
    ),
    (
        (7, 4),
    ),
    (
        (6, 3),
    ),
    (
        (5, 2),
    ),
    (
        (4, 2),
    ),
    (
        (4, 1),
    ),
    (
        (4, 1),
    ),
    (
        (3, 1),
    ),
    (
        (3,),
    ),
    (
        (3,),
    ),
    (
        (3,),
    ),
)
# end of generated block

# _TEMME_TERMS with the rows each entry uses, C_(K-1) first, each highest
# degree first, ready for Horner's rule.
_TEMME_ROWS = tuple(
    tuple(
        tuple(
            row[terms - 1::-1]
            for row, terms in reversed(tuple(zip(_TEMME_COEFFICIENTS, counts)))
        )
        for counts in classes
    )
    for classes in _TEMME_TERMS
)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


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
    for _ in range(_MAX_ITERATIONS):
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
    for i in range(1, _MAX_ITERATIONS + 1):
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


def _mu_minus_log1p(mu: float) -> float:
    # mu - log1p(mu) = eta^2 / 2. Near mu = 0 the difference cancels; there,
    # with u = mu / (2 + mu), log1p(mu) = 2 atanh(u) and mu - 2u = mu u, so
    # it is u (mu - 2 u^2 (1/3 + u^2/5 + ...)), the subtraction losing at most
    # a fraction |mu| / 6 of mu.
    if abs(mu) > 0.1:
        return mu - math.log1p(mu)
    u = mu / (2.0 + mu)
    u2 = u * u
    odd = 1 / 3 + u2 * (1 / 5 + u2 * (1 / 7 + u2 * (1 / 9 + u2 * (1 / 11 + u2 / 13))))
    return u * (mu - 2.0 * u2 * odd)


def _uniform_expansion(s: float, x: float) -> float:
    # Temme: Q(s, x) = erfc(eta sqrt(s/2)) / 2 + R and P(s, x) =
    # erfc(-eta sqrt(s/2)) / 2 - R, R = e^(-s eta^2/2) / sqrt(2 pi s) *
    # sum_k C_k(eta) s^-k, each tail computed directly (never 1 - tail
    # below the mode).
    mu = (x - s) / s
    half_eta2 = _mu_minus_log1p(mu)
    if s * half_eta2 > -_LOG_UNDERFLOW:
        return 0.0 if mu < 0.0 else 1.0
    eta = math.copysign(math.sqrt(2.0 * half_eta2), mu)
    classes = _TEMME_ROWS[min(int(math.log10(s)), len(_TEMME_ROWS)) - 1]
    # |eta| < 2^exponent; eta = 0 takes the last class, the smallest |eta|.
    exponent = math.frexp(eta)[1] if eta else -len(classes)
    inv_s = 1.0 / s
    total = 0.0
    for row in classes[min(-exponent - 1, len(classes) - 1)]:
        c_k = 0.0
        for coefficient in row:
            c_k = c_k * eta + coefficient
        total = total * inv_s + c_k
    root_s = math.sqrt(s)
    remainder = math.exp(-s * half_eta2) * total / (_SQRT_2PI * root_s)
    z = eta * root_s * math.sqrt(0.5)
    if mu < 0.0:
        return 0.5 * math.erfc(-z) - remainder
    return 1.0 - (0.5 * math.erfc(z) + remainder)


def regularized_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(s, x).

    P(s, x) = (1 / Gamma(s)) * integral_0^x u^(s-1) e^(-u) du, which for
    integer s equals the probability that a Poisson(x) count reaches s.
    For s >= 20 and |x - s| <= 0.4 s uses Temme's uniform asymptotic
    expansion, O(1) in s; elsewhere the power series for x < s + 1 and the
    complement of a continued fraction otherwise, which converge there in
    a bounded number of terms. Against high-precision references the
    absolute error was at most 1.4e-16 for 20 <= s <= 1e3 and 2.3e-15 for
    s < 20 on 3,000 random points with x within a factor 10 of s and
    x <= 1e4; within 8 sqrt(s) of the mode, 4.1e-15 for s < 20, 1.9e-16
    for s in [20, 100) and 1.1e-16 in each decade from 1e2 to 1e16. No
    finite input overflows.
    """
    # An int past the float range is caught, not checked first (see check_float).
    try:
        check_positive("shape s", s, DomainError)
        if math.isnan(x) or x < 0.0:
            raise DomainError(f"argument x must be >= 0, got {x!r}")
    except OverflowError:
        check_float("shape s", s, DomainError)
        check_float("argument x", x, DomainError)
        raise
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    if s >= _TEMME_MIN_SHAPE and abs(x - s) <= _TEMME_WIDTH * s:
        return _uniform_expansion(s, x)
    lower = x < s + 1.0
    log_pref = _log_prefactor(s, x)
    if log_pref < _LOG_UNDERFLOW:
        return 0.0 if lower else 1.0
    tail = _lower_series(s, x) if lower else _upper_continued_fraction(s, x)
    prefactor = math.exp(log_pref)
    if lower:
        return min(1.0, tail * prefactor)
    return max(0.0, 1.0 - prefactor * tail)


def _success_pair(params: AuctionParams) -> tuple[float, float]:
    # (P(n, x), P(n + 1, x)) at x = rate * T from one kernel call and the
    # Poisson term x^n e^-x / n! = P(n, x) - P(n + 1, x) (DLMF 8.8.5). Below
    # x = n + 1 the term is added to P(n + 1, x); above it, where both values
    # exceed about 1/2, it is taken from P(n, x). Neither step cancels, and
    # above the mode p is the kernel's own value. From n = 2**53 on, where
    # n + 1.0 rounds, the term comes off P(float(n), x) at every x: p >= 1e-300
    # keeps x within 37 sqrt(n) of n, where the term is under 4e-7 of P(n, x).
    n = params.n_required
    x = params.arrival_rate * params.max_time
    upper = x >= n + 1.0 or n >= 2**53
    kernel = regularized_lower_gamma(float(n) if upper else n + 1.0, x)
    # At x = 0 and x = inf the kernel's 0 and 1 are exact, and the log
    # prefactor undefined.
    if x == 0.0 or math.isinf(x):
        return kernel, kernel
    # x^n e^-x / n! = exp(log(x^n e^-x / Gamma(n))) / n.
    log_pref = _log_prefactor(float(n), x)
    term = math.exp(log_pref) / n if log_pref >= _LOG_UNDERFLOW else 0.0
    if upper:
        return kernel, kernel - term
    return kernel + term, kernel


def success_probability(params: AuctionParams) -> float:
    """Probability that the required bidders arrive before the window closes.

    Equals P(n_required, arrival_rate * max_time); 1.0 for an unbounded
    window.
    """
    return _success_pair(params)[0]


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
    # mu underflows to 0.0 or overflows to inf: no log of either.
    if mu == 0.0:
        return 0.0
    if math.isinf(mu):
        return 1.0
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
    where rate*t is 0.0 the density is arrival_rate for n_required = 1 and
    0 otherwise, and where it is inf the density is 0.
    """
    check_float("t", t, DomainError)
    if math.isnan(t) or t < 0.0:
        raise DomainError(f"t must be >= 0, got {t!r}")
    lam = params.arrival_rate
    n = params.n_required
    x = lam * t
    # x underflows to 0.0 (the density at t = 0) or is inf (0.0): no log of either.
    if x == 0.0:
        return lam if n == 1 else 0.0
    if math.isinf(x):
        return 0.0
    # rate * x^(n-1) e^-x / Gamma(n), from the kernel's x^n e^-x / Gamma(n).
    log_density = math.log(lam) + _log_prefactor(float(n), x) - math.log(x)
    if log_density < _LOG_UNDERFLOW:
        return 0.0
    return math.exp(log_density)


def _nondegenerate_success_pair(params: AuctionParams) -> tuple[float, float]:
    p, p_next = _success_pair(params)
    if p < MIN_SUCCESS_PROBABILITY:
        raise DegenerateAuctionError(
            f"success probability underflowed ({p!r}) for {params}; design is degenerate"
        )
    return p, p_next


def auction_statistics(params: AuctionParams) -> AuctionStatistics:
    """Compute the full closed-form summary for one auction design.

    One kernel call for any n_required: p = P(n, rate*T) and P(n + 1, rate*T)
    differ by the Poisson term x^n e^-x / n! at x = rate*T (DLMF 8.8.5),
    added below x = n + 1 and subtracted above it, so neither cancels. From
    n = 2**53 on it is subtracted at every x, and an odd n, which a float
    does not hold, takes float(n)'s values. The truncated Erlang identity
    E[min(S, T)] = (n / rate) * P(n + 1, rate*T) + T * (1 - p) was within
    6.0e-16 relative of 50-digit references for n_required in [10, 100),
    2.7e-16 in [100, 1e5) and 1.4e-16 at five n from 2**53 to 2**60, with
    rate*T within 4 sqrt(n) of n (3 sqrt(n) from 2**53). For an unbounded
    window every duration field equals n_required / arrival_rate,
    p_success is 1.0 and expected_failures 0.0.
    Raises DegenerateAuctionError when the success probability underflows.
    """
    erlang_mean = params.n_required / params.arrival_rate  # E[S] = n / rate
    if params.unbounded:
        return AuctionStatistics(1.0, erlang_mean, erlang_mean, 0.0, erlang_mean, erlang_mean)
    p, p_next = _nondegenerate_success_pair(params)
    trunc = erlang_mean * p_next + params.max_time * (1.0 - p)
    cond = erlang_mean * p_next / p
    failures = (1.0 - p) / p
    window_failures = failures * params.max_time
    # Positional arguments in field order: a sweep builds one per cell.
    return AuctionStatistics(
        p, trunc, cond, failures, window_failures + trunc, cond + window_failures
    )


def select_dispatch_time(stats: AuctionStatistics, mode: TdMode) -> float:
    """Pick the dispatch-time field of stats matching mode."""
    check_choice("td_mode", mode, TD_MODES)
    if mode == "paper":
        return stats.dispatch_time_paper
    return stats.dispatch_time_consistent
