"""Coefficient table of Temme's uniform expansion for the incomplete-gamma kernel.

Usage: python3 tools/temme_coefficients.py [--check]

Without arguments the script prints the literal block of four constants
that ``src/groupbuy_inventory/stochastics.py`` carries, from the comment
that names this script to "# end of generated block". With ``--check`` it
imports that module from the same checkout, compares the four constants,
and exits 0 when they match the generated values exactly and 1 otherwise.

Temme's expansion (DLMF 8.12) writes, for lambda = x / s, mu = lambda - 1
and eta = sign(mu) * sqrt(2 (mu - log1p(mu))),

    Q(s, x) = erfc(eta sqrt(s / 2)) / 2 + R,
    R = exp(-s eta^2 / 2) / sqrt(2 pi s) * sum_k C_k(eta) s^-k,

with C_0(eta) = 1/mu - 1/eta and C_k(eta) = C_{k-1}'(eta) / eta
+ (-1)^k g_k / mu, where g_k are the Stirling coefficients of
Gamma(s) ~ sqrt(2 pi / s) (s / e)^s sum_k g_k s^-k. Everything below is
exact rational arithmetic on truncated power series in eta: mu(eta) from
the derivative of eta^2 / 2 = mu - log1p(mu), 1/mu by series division,
then the recurrence, term by term. The table holds the Taylor coefficients of
C_0 .. C_{K-1} about eta = 0, rounded once to double.

The kernel uses the expansion for s >= MIN_SHAPE and |x - s| <= WIDTH s,
where |eta| <= eta_max(). It returns 0 or 1 without the sum once
s eta^2 / 2 exceeds UNDERFLOW (erfc and R both underflow there), so in the
band of shapes [10^d, 10^(d+1)) only |eta| <= sqrt(2 UNDERFLOW / 10^d)
matters. Each band is split again into classes |eta| < 2^-(j+1). For each
band and class the script keeps, of each C_k, the fewest Taylor terms
whose dropped tail, bounded by sum_i |c_(k,i)| eta_b^i s_b^-k at the
band's smallest shape s_b and the class's largest |eta| eta_b, stays
below TOLERANCE / (2 K), and the fewest C_k whose dropped rows stay below
TOLERANCE / 2. The sum is about -1/3, so TOLERANCE bounds its relative
truncation error by 3 TOLERANCE.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from pathlib import Path

MIN_SHAPE = 20.0
WIDTH = 0.4
UNDERFLOW = 745.0
TOLERANCE = 1e-16
# Generated series lengths: far more than any band keeps, so the tail
# bounds above see every term that matters.
ROWS = 20
DEGREE = 60
# Bands run from decade 1 (s in [10, 100)) to the last decade listed; larger
# shapes use the last band.
LAST_DECADE = 16
# Within a band, |eta| classes below 2^-1, 2^-2, ... 2^-ETA_CLASSES.
ETA_CLASSES = 6


def _series_inverse(a: list[Fraction], n: int) -> list[Fraction]:
    out = [Fraction(0)] * n
    out[0] = 1 / a[0]
    for k in range(1, n):
        out[k] = -sum(a[j] * out[k - j] for j in range(1, min(k, len(a) - 1) + 1)) / a[0]
    return out


def stirling_coefficients(count: int) -> list[Fraction]:
    """g_0 .. g_{count-1} of Gamma(s) ~ sqrt(2 pi / s) (s / e)^s sum_k g_k s^-k."""
    bernoulli = [Fraction(1)]
    for m in range(1, count + 1):
        bernoulli.append(-sum(math.comb(m + 1, k) * bernoulli[k] for k in range(m)) / (m + 1))
    # log of the sum is sum_m B_2m / (2m (2m - 1)) s^-(2m - 1); exponentiate.
    log_sum = [Fraction(0)] * count
    for m in range(1, count // 2 + 1):
        if 2 * m - 1 < count:
            log_sum[2 * m - 1] = bernoulli[2 * m] / (2 * m * (2 * m - 1))
    g = [Fraction(1)] + [Fraction(0)] * (count - 1)
    for n in range(1, count):
        g[n] = sum(k * log_sum[k] * g[n - k] for k in range(1, n + 1)) / n
    return g


def temme_series(rows: int = ROWS, degree: int = DEGREE) -> list[list[Fraction]]:
    """Exact Taylor coefficients of C_0 .. C_{rows-1}; C_k keeps degree - 2k terms."""
    n = degree + 2 * rows + 1
    # mu(eta) = sum_j a_j eta^j from eta (1 + mu) = mu mu', the derivative of
    # eta^2 / 2 = mu - log1p(mu); a_1 = 1 and, for j >= 2, matching eta^j gives
    # (j + 1) a_j = a_(j-1) - sum_(2 <= i < j) (j + 1 - i) a_i a_(j+1-i).
    a = [Fraction(0), Fraction(1)]
    for j in range(2, n + 1):
        a.append((a[j - 1] - sum((j + 1 - i) * a[i] * a[j + 1 - i] for i in range(2, j))) / (j + 1))
    mu_over_eta = a[1:]
    # 1/mu = sum_j r_j eta^(j-1), so C_0 = 1/mu - 1/eta has coefficients r_1, r_2, ...
    r = _series_inverse(mu_over_eta, n)
    table = [r[1:]]
    g = stirling_coefficients(rows)
    for k in range(1, rows):
        previous = table[-1]
        g_signed = (-1) ** k * g[k]
        # The 1/eta terms of C_{k-1}'/eta and (-1)^k g_k / mu cancel.
        assert previous[1] + g_signed * r[0] == 0
        table.append(
            [(i + 2) * previous[i + 2] + g_signed * r[i + 1] for i in range(len(previous) - 2)]
        )
    return [row[: degree - 2 * k] for k, row in enumerate(table)]


def eta_max(width: float = WIDTH) -> float:
    """Largest |eta| inside |x - s| <= width * s (reached at x = (1 - width) s)."""
    return max(math.sqrt(2.0 * (mu - math.log1p(mu))) for mu in (-width, width))


def band_terms(bounds: list[list[float]], shape: float, eta: float) -> tuple[int, ...]:
    """Taylor terms of each C_k kept at shapes >= shape and |eta| <= eta."""

    def tail(k: int, start: int) -> float:
        # Bound on the terms of C_k s^-k from degree start on.
        return sum(c * eta**i for i, c in enumerate(bounds[k][start:], start)) * shape**-k

    dropped_rows = [sum(tail(j, 0) for j in range(k, len(bounds))) for k in range(len(bounds))]
    rows = next(k for k, dropped in enumerate(dropped_rows) if dropped <= TOLERANCE / 2)
    counts = []
    for k in range(rows):
        terms = len(bounds[k])
        while terms > 1 and tail(k, terms - 1) <= TOLERANCE / (2 * rows):
            terms -= 1
        counts.append(terms)
    return tuple(counts)


def generate() -> dict[str, object]:
    """The constants of the literal block, by name."""
    table = temme_series()
    bounds = [[abs(float(c)) for c in row] for row in table]
    terms = []
    for decade in range(1, LAST_DECADE + 1):
        shape = max(MIN_SHAPE, 10.0**decade)
        reach = min(eta_max(), math.sqrt(2.0 * UNDERFLOW / shape))
        classes = [
            band_terms(bounds, shape, min(reach, 2.0 ** -(j + 1))) for j in range(ETA_CLASSES)
        ]
        while len(classes) > 1 and classes[-1] == classes[-2]:
            classes.pop()
        terms.append(tuple(classes))
    widest = terms[0][0]
    coefficients = tuple(tuple(float(c) for c in row[:count]) for row, count in zip(table, widest))
    assert all(
        len(counts) <= len(widest) and all(n <= m for n, m in zip(counts, widest))
        for classes in terms for counts in classes
    )
    return {
        "_TEMME_MIN_SHAPE": MIN_SHAPE,
        "_TEMME_WIDTH": WIDTH,
        "_TEMME_COEFFICIENTS": coefficients,
        "_TEMME_TERMS": tuple(terms),
    }


def render(constants: dict[str, object]) -> str:
    lines = [
        f"_TEMME_MIN_SHAPE = {constants['_TEMME_MIN_SHAPE']!r}",
        f"_TEMME_WIDTH = {constants['_TEMME_WIDTH']!r}",
        "# Taylor coefficients of C_k(eta) about eta = 0, row k = C_k, lowest degree first.",
        "_TEMME_COEFFICIENTS = (",
    ]
    for row in constants["_TEMME_COEFFICIENTS"]:
        lines.append("    (")
        for start in range(0, len(row), 3):
            lines.append("        " + " ".join(f"{c!r}," for c in row[start:start + 3]))
        lines.append("    ),")
    lines.append(")")
    lines.append("# Terms of each C_k used for shapes in [10^d, 10^(d+1)), d = 1, 2, ... (the")
    lines.append("# last band also covers every larger shape), then for |eta| < 2^-(j+1),")
    lines.append("# j = 0, 1, ... (the last class also covers every smaller |eta|).")
    lines.append("_TEMME_TERMS = (")
    for classes in constants["_TEMME_TERMS"]:
        lines.append("    (")
        for counts in classes:
            lines.append(f"        {counts!r},")
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        sys.exit(__doc__.split("\n\n")[1])
    constants = generate()
    if not argv:
        print(render(constants))
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from groupbuy_inventory import stochastics

    stale = [name for name, value in constants.items() if getattr(stochastics, name, None) != value]
    for name in stale:
        print(f"{name}: differs from the generated value", file=sys.stderr)
    print("temme table: " + ("stale: " + ", ".join(stale) if stale else "matches"))
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
