"""Tests for the closed-form degree-(2d-1) Chern part."""

from __future__ import annotations

from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from flexk3.flexdeg import cross_check, nd_chern_monomial
from flexk3.schubert import monomial_integral
from flexk3.truncpoly import chern_total


def dense_chern_rows(d: int, sigma: int = -1, top: int | None = None) -> list[list[int]]:
    """Rows c[k][n] of (1 + sigma*t)^(4d+2) / (1 + sigma*t + y*t^2)^(d+2), k <= top.

    c[k][n] is the coefficient of t^k y^n, so with sigma = -1, t = s1 and
    y*t^2 = s2 it is the coefficient of s1^(k-2n) * s2^n in the Chern class.
    Built from the definition alone: 4d+2 multiplications by 1 + sigma*t,
    then d+2 exact divisions by 1 + sigma*t + y*t^2, one row at a time.
    """
    top = 2 * d - 1 if top is None else top
    width = top // 2 + 1
    c = [[1] + [0] * (width - 1)] + [[0] * width for _ in range(top)]
    for _ in range(4 * d + 2):
        for k in range(top, 0, -1):
            c[k] = [a + sigma * b for a, b in zip(c[k], c[k - 1])]
    for _ in range(d + 2):
        for k in range(1, top + 1):
            y_times = [0] + c[k - 2][:-1] if k >= 2 else [0] * width
            c[k] = [a - sigma * b - e for a, b, e in zip(c[k], c[k - 1], y_times)]
    return c


def test_chern_total_degree_zero_is_one():
    for d in (1, 2, 5):
        assert dense_chern_rows(d)[0] == [1] + [0] * (d - 1)


def test_chern_total_d1_low_degrees():
    c = dense_chern_rows(1, top=2)
    assert c[1] == [-3, 0]
    assert c[2] == [3, -3]
    assert chern_total(1) == (-3,)


def test_chern_total_hand_value_d2():
    # (1-s1)^10 / (1-s1+s2)^4 in degree 3: -20 s1^3 + 20 s1 s2
    assert chern_total(2) == (-20, 20)


def test_chern_total_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        chern_total(0)


def test_chern_total_integer_coefficients():
    for d in (1, 5, 17, 40):
        for row in dense_chern_rows(d):
            assert all(isinstance(coef, int) for coef in row)
        assert all(isinstance(coef, int) for coef in chern_total(d))


def test_chern_total_matches_dense_oracle():
    for d in range(1, 41):
        row = dense_chern_rows(d)[2 * d - 1]
        assert all(row)
        assert chern_total(d) == tuple(row)


def two_binomial_form(d):
    return tuple(
        (-1) ** (n + 1) * comb(n + d + 1, n) * comb(3 * d - n, 2 * d - 1 - 2 * n) for n in range(d)
    )


@pytest.mark.parametrize("d", [1, 2, 3, 10, 57, 200, 1000, 2000])
def test_chern_total_steps_equal_two_binomial_form(d):
    assert chern_total(d) == two_binomial_form(d)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=800))
def test_chern_total_equals_two_binomial_form_for_any_d(d):
    assert chern_total(d) == two_binomial_form(d)


def test_minus_signs_cancel():
    # contracting the alternating expansion with its leading minus sign must
    # equal the top-degree extraction of the all-positive-sign expansion
    for d in range(1, 21):
        positive = dense_chern_rows(d, sigma=1)[2 * d - 1]
        total = sum(coef * monomial_integral(2 * d - 2 * n, n, d) for n, coef in enumerate(positive))
        assert total == nd_chern_monomial(d)


def test_chern_total_caches_one_entry():
    chern_total.cache_clear()
    cross_check(1, 50)
    info = chern_total.cache_info()
    assert (info.misses, info.hits, info.currsize) == (50, 50, 1)
