"""Tests for the exact combinatorial kernel."""

from __future__ import annotations

import __future__
import random
import sys
import tracemalloc
import types
from math import comb, factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from flexk3 import exact, flexdeg, qseries, truncpoly
from flexk3.exact import (
    PRIME_ROUTE_MIN_D,
    _central_binomial,
    _exact_div_short,
    binomial,
    catalan,
    exact_div,
)
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
        for divide in (exact_div, _exact_div_short):
            with pytest.raises(ArithmeticError, match="^expected a 38117-bit integer to divide a 42100"):
                divide(factorial(4000) + 1, 2001 * factorial(2000) ** 2)
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


def exact_div_message(a: int, b: int) -> str:
    with pytest.raises(ArithmeticError) as caught:
        exact_div(a, b)
    return str(caught.value)


@pytest.fixture
def plain_calls(monkeypatch):
    """The calls _exact_div_short passes on to exact_div."""
    calls = []
    monkeypatch.setattr(exact, "exact_div", lambda a, b: calls.append((a, b)) or exact_div(a, b))
    return calls


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_div_short_is_exact_div_at_every_size(data):
    b_bits = data.draw(st.integers(1, 64), "b bits")
    sign = data.draw(st.sampled_from((1, -1)), "sign")
    b = sign * data.draw(st.integers(2 ** (b_bits - 1), 2**b_bits - 1), "b")
    q_bits = data.draw(st.integers(0, b_bits + 2), "q bits")
    q = data.draw(st.integers(1 - 2**q_bits, 2**q_bits - 1), "q")
    r = data.draw(st.just(0) | st.integers(1 - abs(b), abs(b) - 1), "r")
    a = q * b + r
    plain = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "exact_div", lambda a, b: plain.append((a, b)) or exact_div(a, b))
        if a % b:
            with pytest.raises(ArithmeticError) as caught:
                _exact_div_short(a, b)
            assert str(caught.value) == exact_div_message(a, b)
        else:
            assert _exact_div_short(a, b) == a // b
            if 0 < b <= a and 2 * b.bit_length() - a.bit_length() - 2 >= 0:
                assert plain == []  # the truncated quotient is exact, with no divmod


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_exact_div_short_is_exact_div_for_long_divisors(data):
    b_bits = data.draw(st.integers(1998, 6000), "b bits")
    b = data.draw(st.integers(2 ** (b_bits - 1), 2**b_bits - 1), "b")
    q_bits = data.draw(st.integers(1, b_bits + 2), "q bits")
    q = data.draw(st.integers(2 ** (q_bits - 1), 2**q_bits - 1), "q")
    r = data.draw(st.sampled_from((0, 1, -1)) | st.integers(1, b - 1), "r")
    a = q * b + r
    if r:
        with pytest.raises(ArithmeticError) as caught:
            _exact_div_short(a, b)
        assert str(caught.value) == exact_div_message(a, b)
    else:
        assert _exact_div_short(a, b) == q


def test_exact_div_short_takes_the_short_path_on_exact_divisions(plain_calls):
    # random quotients up to two bits shorter than the divisor, so s >= 0:
    # the truncated quotient must be exact, with no divmod to fall back on
    rng = random.Random(28)
    for _ in range(400):
        b_bits = rng.randrange(2000, 6000)
        b = rng.getrandbits(b_bits) | 1 << (b_bits - 1)
        q = rng.getrandbits(rng.randrange(1, b_bits - 1)) | 1
        assert _exact_div_short(q * b, b) == q
    assert plain_calls == []


def test_exact_div_short_cutoff_and_shift_boundaries(plain_calls):
    # (q, b, s): s = 2 len(b) - len(q b) - 2, top and low have n bits, and the
    # short path runs just when s >= 0, whatever the size of b
    for n in (12, 2000):
        top, low = 2**n - 1, 2 ** (n - 1) + 1
        cases = [
            (2 ** (n - 2) - 1, top, 0),  # the longest quotient with s >= 0
            (2 ** (n - 2) + 1, low, 0),
            (2 ** (n - 3) - 1, top, 1),
            (2 ** (n - 3) + 3, low, 1),
            (2 ** (n - 1) - 1, top, -1),  # one bit longer: plain divmod
            (7, low, n - 4),
            (7, low // 2, n - 5),  # divisors of n - 1 bits
            (2 ** (n // 2) + 1, top // 2, n - n // 2 - 4),
        ]
        for q, b, s in cases:
            a = q * b
            assert 2 * b.bit_length() - a.bit_length() - 2 == s, (q, b)
            plain_calls.clear()
            assert _exact_div_short(a, b) == q
            assert plain_calls == ([] if s >= 0 else [(a, b)])
            with pytest.raises(ArithmeticError):
                _exact_div_short(a + 1, b)


def test_exact_div_short_hands_other_signs_to_exact_div(plain_calls):
    b = 2**2000 + 1
    assert _exact_div_short(-3 * b, b) == -3
    assert _exact_div_short(3 * b, -b) == -3
    assert _exact_div_short(-3 * b, -b) == 3
    assert _exact_div_short(0, b) == 0
    assert plain_calls == [(-3 * b, b), (3 * b, -b), (-3 * b, -b), (0, b)]
    with pytest.raises(ArithmeticError):
        _exact_div_short(b - 1, b)  # a positive a shorter than b


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


def test_exact_keeps_nothing_between_calls():
    # no store at module level: its values are functions, classes, modules and
    # immutable numbers and strings, with no list, bytearray, dict, set or lru_cache
    stateless = (types.FunctionType, types.BuiltinFunctionType, type, types.ModuleType, int, str)
    kept = {
        name: type(value).__name__
        for name, value in vars(exact).items()
        if not name.startswith("__") and value is not __future__.annotations
        if not isinstance(value, stateless)
    }
    assert kept == {}
    # and none hidden elsewhere: after a warm-up call, a call at d = 200,000 (a
    # 200 kB sieve) leaves the traced size where it was once its result is dropped
    _central_binomial(PRIME_ROUTE_MIN_D)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _central_binomial(200_000)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert after == before


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


@pytest.mark.skipif(sys.int_info.bits_per_digit != 30, reason="the bound is one 30-bit digit")
def test_ratio_walks_divide_by_one_digit(monkeypatch):
    # README's cost model: each ratio walk divides an O(d)-bit integer by a
    # small one, below 2^30, so CPython takes its single-digit division path
    divisors = []

    def recording(a, b):
        divisors.append(b)
        return exact_div(a, b)

    for module in (truncpoly, flexdeg, qseries):
        monkeypatch.setattr(module, "exact_div", recording)
    monkeypatch.setattr(qseries, "_longest", ())
    truncpoly.chern_total.cache_clear()
    d = 2000
    truncpoly.chern_total(d)
    flexdeg.nd_double_sum(d)
    flexdeg.nd_chern_monomial(d)
    qseries.crossover(d)  # and the series to q^(d + 1) it builds
    qseries.euler_power_neg24_by_product(400)
    assert len(divisors) > 4 * d
    assert max(map(abs, divisors)) < 2**30, max(map(abs, divisors)).bit_length()
