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

per coefficient three C-level passes over the K(n) terms in reach (step
their weights c_k (n + 7 t_k) by c_k, gather the a(n - t_k) with one
itemgetter, sum their products) and one asserted exact division by n:
to q^N, sum_n K(n) ~ 0.94 N^(3/2) weight additions and as many bigint
multiply-adds (82 thousand at N = 2000).  The recurrence reads only
earlier coefficients, so the process keeps the longest series built so far
and a longer request extends it, never rebuilds it; a shorter one is a
slice of it.  An extension grows it by at least a quarter, so a rising run
of requests extends O(log N) times.  Each extension is certified at its
new top index by the logarithmic-derivative identity

    N a(N) = 24 * sum_{k=1}^{N} sigma(k) a(N-k),

and raises ArithmeticError if it fails.  An independent oracle builds
E = prod (1 - q^n) from the top factor down, checks Ramanujan's congruence
tau(m) = sigma_11(m) (mod 691) on E^24 (a square and four narrower products),
and takes E^(-24) from E's own nonzero terms by the same power rule, tied
to E^24 at q^N: O(N^(3/2)) products, no series identity.

This module also compares the flex multiples n_d against the Yau-Zaslow
multiples (crossover) and checks both against their growth models

    n_d   ~ 2^(4d+1) / (pi d^2)
    yz_d  ~ e^(4 pi sqrt(d)) / (sqrt(2) d^(27/4))

using exact-integer logarithms, since the integers involved have far
too many digits for float conversion.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import add, itemgetter, mul, sub

from .exact import binomial, exact_div
from .flexdeg import nd_closed

AsymReport = namedtuple("AsymReport", "d log_exact log_model log_ratio")
AsymReport.__doc__ = """Exact log versus growth-model log; log_ratio = log_exact - log_model.

A tuple, so `d, *logs = asym_flex(d)` unpacks it."""

CrossoverRow = namedtuple("CrossoverRow", "d n_d yz_d flex_larger")
CrossoverRow.__doc__ = "One crossover row: d, n_d, yz_d, and flex_larger, true when n_d > yz_d."

CrossoverReport = namedtuple(
    "CrossoverReport", "rows first_flex_dominant model_first_flex_dominant"
)
CrossoverReport.__doc__ = """Flex vs Yau-Zaslow comparison over d = 1..max_d, a tuple like its rows.

rows holds one CrossoverRow per d.  first_flex_dominant is the
smallest d with n_d > yz_d (None if the range never gets there);
model_first_flex_dominant is the same
comparison applied to the two growth models, reported separately
because the two notions of "switch" need not land on the same d."""


def divisor_sums(N: int) -> list[int]:
    """sigma(k) = sum of divisors of k, for k = 0..N, by sieve; sigma(0) = 0."""
    if N < 0:
        raise ValueError(f"negative bound {N}")
    sums = [0] * (N + 1)
    for d in range(1, math.isqrt(N) + 1):  # k = d q <= N with d <= q gains d and q
        sums[d * d] += d  # q = d, counted once
        pairs = slice(d * d + d, None, d)  # q = d + 1..N // d
        sums[pairs] = [s + t for s, t in zip(sums[pairs], range(2 * d + 1, d + N // d + 1))]
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
    if N * a[N] != 24 * sum(map(mul, divisor_sums(N)[1:], reversed(a[:N]))):
        raise ArithmeticError(f"series fails the divisor-sum identity at q^{N}")


def euler_power_neg24(N: int) -> tuple[int, ...]:
    """Coefficients a(0..N) of prod (1 - q^n)^(-24), a(n) at index n.

    A request up to the longest series built so far in this process is a
    slice of it.  A longer one extends it to top = max(N, 5L // 4), L its
    length, by the power recurrence n a(n) = -sum_k c_k (n + 7 t_k)
    a(n - t_k) over Jacobi's terms (t_k, c_k), each weighted from n = t_k
    on, one asserted exact division by n per new coefficient, is certified
    at q^top by the divisor-sum identity (a sieve and a top-term dot
    product), and replaces it.  The trade: a request just past the series
    builds up to a quarter more than it asks for, at most about 40% of a
    full build, and a rising run of requests extends O(log N) times.
    """
    global _longest
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    if N >= len(_longest):
        top = max(N, len(_longest) * 5 // 4)
        a = list(_longest) or [1]
        terms = _jacobi_cube_terms(top)
        ts, cs = zip(*terms, (top + 1, 0))  # and a last term, never in reach
        # c_k (n + 7 t_k), n = len(a) - 1, for the terms in reach (t_k <= n)
        weights = [c * (len(a) - 1 + 7 * t) for t, c in terms if t < len(a)]
        # reads[k - 1](a) is (a(n - t_1), ..., a(n - t_k)) while len(a) == n
        reads = [itemgetter(*[-t for t in ts[:k]]) for k in range(1, len(ts))]
        reads[0] = lambda seq: (seq[-1],)  # itemgetter(-1) returns a scalar
        for n in range(len(a), top + 1):
            if n == ts[len(weights)]:  # term k comes in at n = t_k, weighted c_k (n - 1 + 7 t_k)
                weights.append(cs[len(weights)] * (8 * n - 1))
            weights = list(map(add, weights, cs))
            a.append(-exact_div(sum(map(mul, weights, reads[len(weights) - 1](a))), n))
        _certify(a)
        _longest = tuple(a)
    return _longest[: N + 1]


def _euler_product(N: int) -> list[int]:
    """prod_{n <= N} (1 - q^n) truncated at q^N, from the factor n = N down."""
    e = [1] + [-1] * N  # factor n puts -1 at q^n, where the factors above n have no term
    for n in range((N - 1) // 2, 0, -1):  # factors > n are in: q^(n+1)..q^(2n+2) hold -1
        e[2 * n + 1 :] = map(sub, e[2 * n + 1 :], e[n + 1 : N + 1 - n])
    return e


def _euler_power_24(e: list[int]) -> list[int]:
    """E^24 truncated at q^N, N = len(e) - 1, by Kronecker substitution.

    E = sum_k e[k] q^k, here prod_{n <= N} (1 - q^n).  The map q -> 2^(8w)
    from Z[q]/(q^(N+1)) to Z/2^(8w(N+1)) is a ring homomorphism, so a
    truncated product is one product of packed integers, and a bias of
    2^(8w-1) per w-byte slot reads each coefficient c_k back without
    carries when |c_k| < 2^(8w-1).  With D = 1 - E and L the sum of the
    absolute values of D's coefficients, E^m = sum_j C(m, j) (-D)^j and
    D^j starts at q^j, so the coefficients of E^m obey

        |c_k| <= sum_{j <= min(m, N)} C(m, j) L^j,

    read off E itself, not from any series identity.  The chain E, E^2,
    E^3 = E^2 E, E^6, E^12, E^24 holds each E^m in slots of w_m bytes, the
    least whose half exceeds that bound, so each power reads back exactly
    and is widened into the next one's slots by w_m strided byte copies and
    one packed bias.  Only the last step, a square, runs at width w_24.
    """
    ell, count = sum(map(abs, e)) - 1, len(e)

    def slot_bytes(m):  # w_m
        return sum(binomial(m, j) * ell**j for j in range(min(m + 1, count))).bit_length() // 8 + 1

    def widen(packed, wide, ones):  # sum_k c_k 2^(8 wide k) from the biased slots of packed
        narrow, out = len(packed) // count, bytearray(count * wide)
        for i in range(narrow):
            out[i::wide] = packed[i::narrow]
        return int.from_bytes(out, "little") - (1 << 8 * narrow - 1) * ones

    w = slot_bytes(1)
    powers = {1: b"".join((c + (1 << 8 * w - 1)).to_bytes(w, "little") for c in e)}
    for m in (2, 3, 6, 12, 24):  # E^m = E^(m // 2) E^(m - m // 2), a square but for m = 3
        w = slot_bytes(m)
        half, ones = 1 << 8 * w - 1, int.from_bytes(b"\1".ljust(w, b"\0") * count, "little")
        x = widen(powers[m // 2], w, ones)
        x = x * (widen(powers[2], w, ones) if m == 3 else x) + half * ones
        packed = powers[m] = (x & (1 << 8 * w * count) - 1).to_bytes(w * count, "little")
    return [int.from_bytes(packed[i : i + w], "little") - half for i in range(0, len(packed), w)]


def _check_ramanujan_691(tau: list[int]) -> None:
    """Raise ArithmeticError unless tau(m) = sigma_11(m) (mod 691) for
    m = 1..len(tau), with tau(m) at index m - 1 (Ramanujan 1916; Hardy and
    Wright, Ch. XIX).  sigma_11 mod 691 comes from an O(N log N) sieve."""
    top = len(tau)
    sigma11 = [0] * (top + 1)
    for div in range(1, top + 1):
        sigma11[div::div] = map(pow(div, 11, 691).__add__, sigma11[div::div])
    for m in range(1, top + 1):
        if (tau[m - 1] - sigma11[m]) % 691:
            raise ArithmeticError(f"product oracle fails tau({m}) = sigma_11({m}) mod 691")


def euler_power_neg24_by_product(N: int) -> tuple[int, ...]:
    """Same coefficients from the expanded product E = prod_{n <= N} (1 - q^n).

    E comes from _euler_product (N^2 / 4 small subtractions) and E^24, sum_n
    tau(n+1) q^n, from _euler_power_24: each E^m on its chain is read back
    exactly from slots past twice its bound sum_{j <= min(m, N)} C(m, j) L^j,
    L = sum_k |e_k| - 1.  E^24 must pass Ramanujan's congruence mod 691.
    E P' = -24 E' P (Miller's power rule) gives P = E^(-24) from E's own
    nonzero terms e_k (32 to q^400),

        n a(n) = -sum_{k >= 1, e_k != 0} e_k (n + 23 k) a(n - k),

    one asserted exact division by n and a product per e_k in reach, 8,344
    to q^400 (inverting E^24 took N^2 / 2); then sum_k tau(k+1) a(N-k) must
    be 0.  Each failed check raises ArithmeticError; no series identity is used.
    """
    if N < 1:
        raise ValueError(f"N must be at least 1, got {N}")
    e = _euler_product(N)
    power = _euler_power_24(e)  # tau(n + 1) at index n
    _check_ramanujan_691(power)
    ks, cs = zip(*[(k, c) for k, c in enumerate(e) if c][1:], (N + 1, 0))  # and one never in reach
    reads = [itemgetter(*[-k for k in ks[:j]]) for j in range(1, len(ks))]  # a(n - k_1..k_j)
    reads[0] = lambda seq: (seq[-1],)  # itemgetter(-1) returns a scalar
    a, weights = [1], []  # e_k (n + 23 k) for the terms in reach, k <= n
    for n in range(1, N + 1):
        if n == ks[len(weights)]:  # term k comes in at n = k, weighted e_k (n - 1 + 23 k)
            weights.append(cs[len(weights)] * (24 * n - 1))
        weights = list(map(add, weights, cs))
        a.append(-exact_div(sum(map(mul, weights, reads[len(weights) - 1](a))), n))
    if sum(map(mul, power, reversed(a))):
        raise ArithmeticError(f"product oracle fails E^24 E^-24 = 1 at q^{N}")
    return tuple(a)


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

    n_d steps from n_1 = 3 by n_{d+1} = n_d 4(2d+1)(2d+3) / (d+2)^2, an
    asserted exact division, and n_max_d must equal nd_closed(max_d).  The
    series comes from one euler_power_neg24 call: built to index max_d + 1
    (or further, when it extends a shorter series this process holds), or
    sliced from a longer one.  After the first d with n_d > yz_d the
    dominance must persist through the rest of the range (n_d grows like
    16^d, yz_d only like e^(4 pi sqrt(d))).  A failed check raises
    ArithmeticError since it would mean an arithmetic bug.
    """
    if max_d < 1:
        raise ValueError(f"max_d must be positive, got {max_d}")
    flex_column = [3]
    for d in range(1, max_d):
        flex_column.append(exact_div(flex_column[-1] * ((8 * d + 4) * (2 * d + 3)), (d + 2) ** 2))
    if flex_column[-1] != nd_closed(max_d):
        raise ArithmeticError(f"stepped n_{max_d} differs from nd_closed({max_d})")
    series = euler_power_neg24(max_d + 1)
    rows = []
    first = None
    for d, flex, yz in zip(range(1, max_d + 1), flex_column, series[2:]):
        larger = flex > yz
        if larger and first is None:
            first = d
        if first is not None and not larger:
            raise ArithmeticError(f"crossover not permanent: n_{d} <= yz_{d} after d={first}")
        rows.append(CrossoverRow(d, flex, yz, larger))
    models = (d for d in range(1, max_d + 1) if flex_log_model(d) > yz_log_model(d))
    model_first = next(models, None)
    return CrossoverReport(rows, first, model_first)
