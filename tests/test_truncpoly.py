"""Tests for the degree-capped bivariate polynomial ring."""

from __future__ import annotations

import random

import pytest

from flexk3.flexdeg import nd_chern_monomial
from flexk3.schubert import monomial_integral
from flexk3.truncpoly import GradedBivariate, chern_total


def poly(cap: int, monomials: dict[tuple[int, int], int]) -> GradedBivariate:
    return GradedBivariate(cap, monomials)


def dense_chern_total(d: int) -> GradedBivariate:
    """The whole degree-2d table of (1 - s1)^(4d+2) / (1 - s1 + s2)^(d+2)."""
    cap = 2 * d
    numerator = GradedBivariate(cap, {(0, 0): 1, (1, 0): -1}).power(4 * d + 2)
    denominator = GradedBivariate(cap, {(0, 0): 1, (1, 0): -1, (0, 1): 1}).power(d + 2)
    return numerator * denominator.invert()


def random_poly(rng: random.Random, cap: int, unit: bool = False) -> GradedBivariate:
    monos = {}
    for n in range(cap // 2 + 1):
        for m in range(cap - 2 * n + 1):
            monos[(m, n)] = rng.randint(-9, 9)
    if unit:
        monos[(0, 0)] = 1
    return GradedBivariate(cap, monos)


def test_constructor_validates():
    with pytest.raises(ValueError):
        GradedBivariate(-1)
    with pytest.raises(ValueError):
        GradedBivariate(2, {(3, 0): 1})
    with pytest.raises(ValueError):
        GradedBivariate(4, {(-1, 0): 1})


def test_coefficient_lookup():
    p = poly(4, {(2, 1): 7})
    assert p.coefficient(2, 1) == 7
    assert p.coefficient(0, 0) == 0
    assert p.coefficient(9, 9) == 0


def test_mul_difference_of_squares():
    one_minus = poly(2, {(0, 0): 1, (1, 0): -1})
    one_plus = poly(2, {(0, 0): 1, (1, 0): 1})
    assert one_minus * one_plus == poly(2, {(0, 0): 1, (2, 0): -1})


def test_power_truncates():
    p = poly(1, {(0, 0): 1, (1, 0): 1})
    assert p.power(2) == poly(1, {(0, 0): 1, (1, 0): 2})
    assert p.power(0) == GradedBivariate.one(1)
    with pytest.raises(ValueError):
        p.power(-1)


def test_mul_above_cap_vanishes():
    s2 = poly(3, {(0, 1): 1})
    assert s2 * s2 == GradedBivariate.zero(3)


def test_cap_mismatch_rejected():
    with pytest.raises(ValueError):
        poly(2, {(0, 0): 1}) * poly(3, {(0, 0): 1})
    with pytest.raises(ValueError):
        poly(2, {(0, 0): 1}) + poly(3, {(0, 0): 1})


def test_invert_one():
    assert GradedBivariate.one(4).invert() == GradedBivariate.one(4)


def test_invert_geometric_series():
    p = poly(3, {(0, 0): 1, (1, 0): -1})
    assert p.invert() == poly(3, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (3, 0): 1})


def test_invert_mixed_generators():
    # hand-solved graded recursion for 1/(1 - s1 + s2) to degree 2
    p = poly(2, {(0, 0): 1, (1, 0): -1, (0, 1): 1})
    assert p.invert() == poly(2, {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): -1})


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        poly(2, {(0, 0): 2}).invert()
    with pytest.raises(ValueError):
        poly(2, {(1, 0): 1}).invert()


def test_mul_by_inverse_is_one():
    rng = random.Random(23)
    for _ in range(40):
        cap = rng.randint(0, 12)
        p = random_poly(rng, cap, unit=True)
        assert p * p.invert() == GradedBivariate.one(cap)


def test_ring_laws():
    rng = random.Random(5)
    for _ in range(25):
        cap = rng.randint(0, 8)
        p = random_poly(rng, cap)
        q = random_poly(rng, cap)
        r = random_poly(rng, cap)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_graded_part_bounds():
    p = GradedBivariate.one(4)
    assert p.graded_part(0) == [(0, 0, 1)]
    assert p.graded_part(3) == []
    with pytest.raises(ValueError):
        p.graded_part(5)
    with pytest.raises(ValueError):
        p.graded_part(-1)


def test_graded_part_ordered_by_s2_exponent():
    p = poly(4, {(4, 0): 7, (2, 1): -2, (0, 2): 9})
    assert p.graded_part(4) == [(4, 0, 7), (2, 1, -2), (0, 2, 9)]


def test_chern_total_degree_zero_is_one():
    for d in (1, 2, 5):
        assert dense_chern_total(d).graded_part(0) == [(0, 0, 1)]


def test_chern_total_d1_low_degrees():
    c = dense_chern_total(1)
    assert c.graded_part(1) == [(1, 0, -3)]
    assert c.graded_part(2) == [(2, 0, 3), (0, 1, -3)]


def test_chern_total_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        chern_total(0)


def test_chern_total_integer_coefficients():
    for d in (1, 5, 17, 40):
        for _, _, coef in dense_chern_total(d).monomials():
            assert isinstance(coef, int)


def test_chern_total_matches_dense_oracle():
    for d in range(1, 41):
        assert chern_total(d) == tuple(dense_chern_total(d).graded_part(2 * d - 1))


def test_minus_signs_cancel():
    # contracting the alternating expansion with its leading minus sign must
    # equal the top-degree extraction of the all-positive-sign expansion
    for d in range(1, 21):
        cap = 2 * d
        numerator = GradedBivariate(cap, {(0, 0): 1, (1, 0): 1}).power(4 * d + 2)
        denominator = GradedBivariate(cap, {(0, 0): 1, (1, 0): 1, (0, 1): 1}).power(d + 2)
        positive = numerator * denominator.invert()
        s1 = GradedBivariate(cap, {(1, 0): 1})
        total = sum(
            coef * monomial_integral(m, n, d)
            for m, n, coef in (s1 * positive).graded_part(cap)
        )
        assert total == nd_chern_monomial(d)
