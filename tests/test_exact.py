"""Tests for the exact combinatorial kernel."""

from __future__ import annotations

import sys
from math import comb, factorial

import pytest
from hypothesis import example, given, strategies as st

from flexk3 import exact
from flexk3.exact import PRIME_ROUTE_MIN_D, _central_binomial, binomial, catalan, exact_div
from flexk3.flexdeg import nd_closed


def test_binomial_known_values():
    assert binomial(4, 2) == 6
    assert binomial(10, 5) == 252
    assert binomial(0, 0) == 1
    assert binomial(16, 8) == 12870


def test_binomial_out_of_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(-3, 0) == 0
    assert binomial(-3, -2) == 0


def test_binomial_pascal_recurrence():
    # recurrence vs the factorial-formula implementation
    for n in range(1, 61):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


def test_binomial_symmetry():
    for n in range(61):
        for k in range(n + 1):
            assert binomial(n, k) == binomial(n, n - k)


def test_exact_div():
    assert exact_div(12870, 9) == 1430
    with pytest.raises(ArithmeticError):
        exact_div(7, 2)


def test_exact_div_names_huge_operands_by_bit_length():
    # Runs under CPython's default limit of 4300 digits per int-to-str
    # conversion, where an operand printed in decimal would raise ValueError.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        with pytest.raises(ArithmeticError, match="^expected a 38117-bit integer to divide a 42100"):
            exact_div(factorial(4000) + 1, 2001 * factorial(2000) ** 2)
        with pytest.raises(ArithmeticError, match=f"^expected 3 to divide {2**1000 - 2} exactly$"):
            exact_div(2**1000 - 2, 3)
        with pytest.raises(ArithmeticError, match="^expected 3 to divide a 1001-bit integer exactly$"):
            exact_div(2**1000 + 1, 3)
    finally:
        sys.set_int_max_str_digits(limit)


@given(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=-(10**6), max_value=10**6).filter(bool),
    st.just(0) | st.integers(min_value=-(10**6), max_value=10**6),
)
def test_exact_div_any_signs(q, b, r):
    a = q * b + r
    if a % b:
        with pytest.raises(ArithmeticError):
            exact_div(a, b)
    else:
        assert exact_div(a, b) == a // b
        assert exact_div(a, b) * b == a


def test_catalan_small_values():
    assert [catalan(d) for d in range(9)] == [1, 1, 2, 5, 14, 42, 132, 429, 1430]


def test_catalan_rejects_negative():
    with pytest.raises(ValueError):
        catalan(-2)


def test_catalan_recurrence():
    # (d+2) C(d+1) = (4d+2) C(d), exactly
    for d in range(201):
        assert catalan(d + 1) * (d + 2) == catalan(d) * (4 * d + 2)


def test_central_binomial_by_primes_matches_comb():
    # every d from 0, below the cutoff too, where catalan takes math.comb
    for d in range(601):
        assert _central_binomial(d) == comb(2 * d, d), d


def test_catalan_takes_the_prime_route_from_the_cutoff(monkeypatch):
    calls = []
    monkeypatch.setattr(exact, "_central_binomial", lambda d: calls.append(d) or comb(2 * d, d))
    catalan(PRIME_ROUTE_MIN_D - 1)
    catalan(PRIME_ROUTE_MIN_D)
    assert calls == [PRIME_ROUTE_MIN_D]


@given(st.integers(min_value=0, max_value=6000))
@example(PRIME_ROUTE_MIN_D - 1)
@example(PRIME_ROUTE_MIN_D)
@example(PRIME_ROUTE_MIN_D + 1)
@example(256)  # 2d = 512, 1024 and 2048 are powers of two
@example(512)
@example(1024)
@example(516)  # 2d - 1 = 1031 and 8009 are prime, the top prime of the sieve
@example(4005)
def test_catalan_matches_comb(d):
    assert catalan(d) == comb(2 * d, d) // (d + 1)


def test_closed_form_matches_comb_at_d_20000():
    d = 20000
    assert nd_closed(d) == (2 * d + 1) * (comb(2 * d, d) // (d + 1)) ** 2
