"""Integer q-series engine for the 24-colored partition counts.

The Euler product P(q) = prod_{n >= 1} (1 - q^n)^(-24) generates the
numbers a(n) of partitions of n whose parts each carry one of 24 colors.
Its coefficient a(d+1) is the Yau-Zaslow multiple: the rational-curve
divisor on a degree-2d polarized K3 lies in |a(d+1) L|.

Coefficients come from Jacobi's identity (Hardy and Wright, Thm 357)

    E3(q) = prod (1 - q^n)^3 = sum_{k >= 0} (-1)^k (2k+1) q^(k(k+1)/2),

whose nonzero terms (t_k, c_k) = (k(k+1)/2, (-1)^k (2k+1)) are only the
~sqrt(2N) triangular exponents up to q^N.  P = E3^(-8), so
E3 P' = -8 E3' P (J.C.P. Miller's power rule); its coefficient of
q^(n-1) is the forward recurrence

    n a(n) = -sum_{k >= 1, t_k <= n} c_k (n + 7 t_k) a(n - t_k),

one dot product and one asserted exact division by n per coefficient:
about 0.94 N^(3/2) small-times-bigint multiply-adds to q^N, 84 thousand
at N = 2000.  The recurrence reads only earlier coefficients, so the
process keeps the longest series built so far and a longer request
extends it, never rebuilds it; a shorter one is a slice of it.  Each
extension is certified at its new top index by the
logarithmic-derivative identity

    N a(N) = 24 * sum_{k=1}^{N} sigma(k) a(N-k),

with the divisor sums sigma(k) by sieve, and raises ArithmeticError if
it fails.  An independent oracle expands
prod (1 - q^n)^24 factor by factor and inverts it, using no series
identity.

This module also compares the flex multiples n_d against the Yau-Zaslow
multiples (crossover) and checks both against their growth models

    n_d   ~ 2^(4d+1) / (pi d^2)
    yz_d  ~ e^(4 pi sqrt(d)) / (sqrt(2) d^(27/4))

using exact-integer logarithms, since the integers involved have far
too many digits for float conversion.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
import math
from operator import add, mul
from typing import NamedTuple

from .exact import binomial, exact_div
from .flexdeg import nd_closed


@dataclass(frozen=True)
class AsymReport:
    """Exact log versus growth-model log; log_ratio = log_exact - log_model."""

    d: int
    log_exact: float
    log_model: float
    log_ratio: float


class CrossoverRow(NamedTuple):
    d: int
    n_d: int
    yz_d: int
    flex_larger: bool


@dataclass(frozen=True)
class CrossoverReport:
    """Flex vs Yau-Zaslow comparison over d = 1..max_d.

    first_flex_dominant is the smallest d with n_d > yz_d (None if the
    range never gets there); model_first_flex_dominant is the same
    comparison applied to the two growth models, reported separately
    because the two notions of "switch" need not land on the same d.
    """

    rows: list[CrossoverRow]
    first_flex_dominant: int | None
    model_first_flex_dominant: int | None


def divisor_sums(N: int) -> list[int]:
    """sigma(k) = sum of divisors of k, for k = 0..N, by sieve; sigma(0) = 0."""
    if N < 0:
        raise ValueError(f"negative bound {N}")
    sums = [0] * (N + 1)
    for div in range(1, N + 1):
        for k in range(div, N + 1, div):
            sums[k] += div
    return sums


# The longest series a(0..) built so far in this process.
_longest: tuple[int, ...] = ()


def _jacobi_cube_terms(N: int) -> list[tuple[int, int]]:
    """(k(k+1)/2, (-1)^k (2k+1)) for k >= 1 with k(k+1)/2 <= N: the terms of
    E3 = prod (1 - q^n)^3 after its constant 1, by Jacobi's identity."""
    terms = []
    k = 1
    while k * (k + 1) // 2 <= N:
        terms.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    return terms


def _certify(a: list[int]) -> None:
    """Raise ArithmeticError unless N a(N) = 24 sum_{k=1}^{N} sigma(k) a(N-k),
    N = len(a) - 1: the logarithmic derivative of prod (1 - q^n)^(-24)."""
    N = len(a) - 1
    sigma = divisor_sums(N)
    if N * a[N] != 24 * sum(map(mul, sigma[1:], reversed(a[:N]))):
        raise ArithmeticError(f"series fails the divisor-sum identity at q^{N}")


def euler_power_neg24(N: int) -> tuple[int, ...]:
    """Coefficients a(0..N) of prod (1 - q^n)^(-24), a(n) at index n.

    A request up to the longest series built so far in this process is a
    slice of it.  A longer one extends it to exactly N by the power
    recurrence n a(n) = -sum_k c_k (n + 7 t_k) a(n - t_k) over Jacobi's
    terms (t_k, c_k) with t_k <= n, one asserted exact division by n per
    new coefficient, is certified at q^N by the divisor-sum identity, and
    replaces it.  Extending from length M to N costs about
    0.94 (N^(3/2) - M^(3/2)) bigint multiply-adds for the new
    coefficients, plus the certificate: a divisor-sum sieve to N and an
    N-term dot product.
    """
    global _longest
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if N >= len(_longest):
        a = list(_longest) or [1]
        terms = _jacobi_cube_terms(N)
        ts = [t for t, _ in terms]
        cs = [c for _, c in terms]
        t7s = [7 * t for t in ts]
        for n in range(len(a), N + 1):
            reads = map(a.__getitem__, map(n.__sub__, ts[: bisect_right(ts, n)]))
            weights = map(mul, cs, map(n.__add__, t7s))
            a.append(-exact_div(sum(map(mul, weights, reads)), n))
        _certify(a)
        _longest = tuple(a)
    return _longest[: N + 1]


def euler_power_neg24_by_product(N: int) -> tuple[int, ...]:
    """Same coefficients by expanding the product and inverting it.

    prod_{n <= N} (1 - q^n)^24 is expanded factor by factor, each factor
    as sum_j (-1)^j C(24, j) q^(nj): about 1.9 N^2 operations on integers
    of a few machine words.  The unit-constant result is then inverted
    term by term, N^2 / 2 bigint products.  No series identity is used,
    so this stays independent of euler_power_neg24.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    signed = [(-1) ** j * binomial(24, j) for j in range(25)]
    power = [1] + [0] * N  # prod (1 - q^n)^24, truncated at q^N
    for n in range(1, N + 1):
        before = power[:]
        for j in range(1, min(24, N // n) + 1):
            shift = n * j
            power[shift:] = map(add, power[shift:], map(signed[j].__mul__, before[: N + 1 - shift]))
    coeffs = [1] + [0] * N
    for n in range(1, N + 1):
        coeffs[n] = -sum(map(mul, power[1 : n + 1], coeffs[n - 1 :: -1]))
    return tuple(coeffs)


def yz_multiple(d: int) -> int:
    """Yau-Zaslow multiple for degree 2d: the coefficient a(d+1)."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    return euler_power_neg24(d + 1)[d + 1]


def log_int(n: int) -> float:
    """Natural log of a positive integer of any size.

    Splits off the binary digit count and converts only the leading 53
    bits, so huge integers never pass through a lossy float conversion.
    Relative error is below 1e-12.
    """
    if n <= 0:
        raise ValueError(f"log of non-positive integer {n}")
    shift = n.bit_length() - 53
    if shift <= 0:
        return math.log(n)
    return math.log(n >> shift) + shift * math.log(2)


def flex_log_model(d: int) -> float:
    """ln of the flex growth model 2^(4d+1) / (pi d^2)."""
    return (4 * d + 1) * math.log(2) - math.log(math.pi) - 2 * math.log(d)


def yz_log_model(d: int) -> float:
    """ln of the Yau-Zaslow growth model e^(4 pi sqrt(d)) / (sqrt(2) d^(27/4))."""
    return 4 * math.pi * math.sqrt(d) - 0.5 * math.log(2) - 6.75 * math.log(d)


def asym_flex(d: int) -> AsymReport:
    """Compare ln n_d against the flex growth model."""
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    log_exact = log_int(nd_closed(d))
    log_model = flex_log_model(d)
    return AsymReport(d, log_exact, log_model, log_exact - log_model)


def asym_yz(d: int) -> AsymReport:
    """Compare ln yz_d against the Yau-Zaslow growth model."""
    log_exact = log_int(yz_multiple(d))
    log_model = yz_log_model(d)
    return AsymReport(d, log_exact, log_model, log_exact - log_model)


def crossover(max_d: int) -> CrossoverReport:
    """Compare n_d against yz_d for d = 1..max_d.

    The series is built once to index max_d + 1, or sliced from a longer
    one this process already holds.  After the first d with
    n_d > yz_d the dominance must persist through the rest of the range
    (n_d grows like 16^d, yz_d only like e^(4 pi sqrt(d))); a violation
    raises ArithmeticError since it would mean an arithmetic bug.
    """
    if max_d < 1:
        raise ValueError(f"max_d must be positive, got {max_d}")
    series = euler_power_neg24(max_d + 1)
    rows = []
    first = None
    for d in range(1, max_d + 1):
        flex = nd_closed(d)
        yz = series[d + 1]
        larger = flex > yz
        if larger and first is None:
            first = d
        if first is not None and not larger:
            raise ArithmeticError(f"crossover not permanent: n_{d} <= yz_{d} after d={first}")
        rows.append(CrossoverRow(d, flex, yz, larger))
    model_first = None
    for d in range(1, max_d + 1):
        if flex_log_model(d) > yz_log_model(d):
            model_first = d
            break
    return CrossoverReport(rows, first, model_first)
