"""Exact combinatorial kernel: binomials, exact division, Catalan numbers.

Results are exact Python integers at any size, and the module keeps nothing
between calls.  From d = PRIME_ROUTE_MIN_D on, catalan multiplies out the prime
powers of C(2d, d), its primes read off a sieve made for that call; below,
math.comb is faster.
"""

from __future__ import annotations

import math
from itertools import compress, zip_longest
from operator import mul

PRIME_ROUTE_MIN_D = 512


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with value 0 whenever k < 0 or k > n.

    The out-of-range-is-zero convention keeps summation code free of
    boundary guards.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _show(x: int) -> int | str:
    """x for a failure message, or past 1000 bits "a B-bit integer": a decimal form
    costs quadratic time and, past 4300 digits, raises ValueError by default."""
    return x if -(1 << 1000) < x < 1 << 1000 else f"a {x.bit_length()}-bit integer"


def _require_at_least(value: int, low: int, name: str = "d") -> None:
    """Raise ValueError unless value >= low (1 or 0), in the words of the CLI's checks."""
    if value < low:
        need = "a positive integer" if low else "nonnegative"
        raise ValueError(f"{name} must be {need}, got {_show(value)}")


def exact_div(a: int, b: int) -> int:
    """Integer quotient a // b, raising ArithmeticError unless b divides a.

    Used wherever a formula is an integer for structural reasons; an inexact
    division here means an arithmetic bug, not bad input.
    """
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"expected {_show(b)} to divide {_show(a)} exactly")
    return q


def _exact_div_short(a: int, b: int) -> int:
    """exact_div(a, b) for a quotient R shorter than b, from b's top bits.  If b
    divides a > 0, the floor of (a >> s) / (b >> s), s = 2 len(b) - len(a) - 2, lies
    in [R, R + R/(b >> s)) with b >> s >= 2^(len(a) - len(b) + 1) > R, so it is R;
    q b == a asserts that, else exact_div raises.  An O(len(R)^2) division and one
    Karatsuba product replace O(len(R) len(b)) schoolbook steps."""
    s = 2 * b.bit_length() - a.bit_length() - 2
    if s < 0 or not 0 < b <= a:
        return exact_div(a, b)
    q = (a >> s) // (b >> s)
    return q if q * b == a else exact_div(a, b)


def _central_binomial(d: int) -> int:
    """C(2d, d) for d >= 0 as the product of p**e_p over the primes p <= 2d (Legendre).

    The primes are read off a sieve of the odd numbers below 2d made for this
    call: [i] is 1 just when 2i + 1 is prime, for i < d.  Past sqrt(2d),
    e_p = floor(2d/p) mod 2 and floor(2d/p) = m on (2d/(m+1), 2d/m], so the odd
    m give O(sqrt(d)) slices of the sieve read out at C level, their primes
    multiplied 16 at a time by math.prod, then by a balanced tree.
    """
    table = bytearray(b"\0" + b"\1" * (d - 1))
    for p in range(3, math.isqrt(2 * d) + 1, 2):
        if table[p // 2]:
            table[p * p // 2 :: p] = bytes(len(range(p * p // 2, d, p)))
    n, h, factors = 2 * d, (math.isqrt(2 * d) + 1) // 2, []
    for m in range(1, n // (2 * h + 1) + 1, 2):  # p = 2i + 1 > sqrt(2d) (i >= h), floor(2d/p) = m
        lo, hi = max(h, (n // (m + 1) + 1) // 2), (n // m + 1) // 2
        factors += compress(range(2 * lo + 1, 2 * hi + 1, 2), table[lo:hi])
    factors = [*map(math.prod, zip_longest(*[iter(factors)] * 16, fillvalue=1))]
    for p in (2, *compress(range(1, 2 * h, 2), table[:h])):
        e, q = 0, p
        while q <= n:  # e_p = sum over q = p**i <= 2d of floor(2d/q) - 2 floor(d/q)
            e, q = e + n // q - 2 * (d // q), q * p
        factors.append(p**e)
    while len(factors) > 1:  # a balanced product tree
        factors = [*map(mul, factors[::2], factors[1::2]), *factors[len(factors) & ~1 :]]
    return factors[0]


def catalan(d: int) -> int:
    """Catalan number C(d) = C(2d, d) / (d + 1) for d >= 0.  C(2d, d) is math.comb
    below PRIME_ROUTE_MIN_D, where the prime route costs more (11 against 0.09 us
    at d = 33, 1.09-1.20x at 512; the two cross at d = 516-520, within the
    timings' spread), and _central_binomial from there on."""
    _require_at_least(d, 0)
    return exact_div(_central_binomial(d) if d >= PRIME_ROUTE_MIN_D else math.comb(2 * d, d), d + 1)
