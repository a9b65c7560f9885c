"""Exact combinatorial kernel: binomials, exact division, Catalan numbers.

Everything here runs on Python's arbitrary-precision integers, so results
are exact at any size.
"""

from __future__ import annotations

import math


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k), with value 0 whenever k < 0 or k > n.

    The out-of-range-is-zero convention keeps summation code free of
    boundary guards.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def exact_div(a: int, b: int) -> int:
    """Integer quotient a // b, raising ArithmeticError unless b divides a.

    Used wherever a formula is an integer for structural reasons; an inexact
    division here means an arithmetic bug, not bad input.
    """
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"expected {b} to divide {a} exactly")
    return q


def catalan(d: int) -> int:
    """Catalan number C(d) = C(2d, d) / (d + 1) for d >= 0."""
    if d < 0:
        raise ValueError(f"catalan of negative integer {d}")
    return exact_div(math.comb(2 * d, d), d + 1)
