"""Tests for the two-row Schubert calculus."""

from __future__ import annotations

import random
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_reference import integrate, iterate, mul_sigma2, pieri_sigma1

from flexk3 import exact
from flexk3.exact import catalan
from flexk3.schubert import _sigma1_step, monomial_integral


def s(a: int, b: int) -> dict[tuple[int, int], int]:
    return {(a, b): 1}


def test_pieri_sigma1_clips_to_box():
    assert pieri_sigma1(s(1, 0), 1) == s(1, 1)
    assert pieri_sigma1(s(1, 0), 2) == {(2, 0): 1, (1, 1): 1}
    assert pieri_sigma1(s(2, 2), 2) == {}


def test_mul_sigma2_adds_column():
    assert mul_sigma2(s(0, 0), 2) == s(1, 1)
    assert mul_sigma2(s(1, 1), 2) == s(2, 2)
    assert mul_sigma2(s(2, 0), 2) == {}


def test_integrate_examples():
    assert integrate(iterate(1, 0, 2), 1) == 1
    assert integrate(iterate(2, 0, 4), 2) == 2
    assert integrate(iterate(3, 3, 0), 3) == 1
    assert integrate(s(1, 1), 2) == 0


def test_degree_grading():
    rng = random.Random(11)
    for _ in range(60):
        d = rng.randint(1, 6)
        terms = s(0, 0)
        degree = 0
        for _ in range(rng.randint(1, 2 * d)):
            if rng.random() < 0.5:
                terms = pieri_sigma1(terms, d)
                degree += 1
            else:
                terms = mul_sigma2(terms, d)
                degree += 2
            assert {a + b for a, b in terms} <= {degree}
            if degree != 2 * d:
                assert integrate(terms, d) == 0


def test_sigma1_annihilation_beyond_top():
    for d in range(1, 11):
        terms = s(0, 0)
        for _ in range(2 * d + 1):
            terms = pieri_sigma1(terms, d)
        assert terms == {}


def test_monomial_integral_values(monkeypatch):
    assert monomial_integral(4, 0, 2) == 2
    assert monomial_integral(6, 0, 3) == 5
    assert monomial_integral(2, 0, 1) == 1
    for d in range(1, 9):
        assert monomial_integral(0, d, d) == 1
        assert monomial_integral(2 * d, 0, d) == catalan(d)
    # route 4's start answers through the short division, no plain exact_div
    monkeypatch.setattr(exact, "exact_div", None)
    for d in (1, 7, 33, 300, 2000):
        want = factorial(2 * d) // (factorial(d) * factorial(d + 1))
        assert monomial_integral(2 * d, 0, d) == want


def test_monomial_integral_rejects_bad_input():
    with pytest.raises(ValueError):
        monomial_integral(3, 1, 2)
    with pytest.raises(ValueError):
        monomial_integral(2, 0, 2)
    with pytest.raises(ValueError):
        monomial_integral(-2, 2, 1)
    with pytest.raises(ValueError):
        monomial_integral(2, 0, 0)


def test_pieri_matches_formula_canonical_order():
    for d in range(1, 13):
        for n in range(d + 1):
            m = 2 * d - 2 * n
            assert integrate(iterate(d, n, m), d) == monomial_integral(m, n, d)


def test_pieri_order_independence():
    # the ring is commutative, so interleavings must not matter
    rng = random.Random(7)
    for _ in range(60):
        d = rng.randint(1, 8)
        n = rng.randint(0, d)
        m = 2 * d - 2 * n
        ops = ["s1"] * m + ["s2"] * n
        rng.shuffle(ops)
        terms = s(0, 0)
        for op in ops:
            terms = pieri_sigma1(terms, d) if op == "s1" else mul_sigma2(terms, d)
        assert integrate(terms, d) == monomial_integral(m, n, d)


def as_terms(x: list[int], k: int) -> dict[tuple[int, int], int]:
    """The degree-k list piece as a {(a, b): coef} dict."""
    return {(k - b, b): c for b, c in enumerate(x) if c}


def as_piece(terms: dict[tuple[int, int], int], k: int) -> list[int]:
    """The degree-k part of a dict as a list piece."""
    return [terms.get((k - b, b), 0) for b in range(k // 2 + 1)]


@st.composite
def graded_pieces(draw):
    """(k, x): a random integer piece of degree k <= 18, with no box."""
    k = draw(st.integers(0, 18))
    x = draw(st.lists(st.integers(-10**20, 10**20), min_size=k // 2 + 1, max_size=k // 2 + 1))
    return k, x


@settings(max_examples=200, deadline=None)
@given(graded_pieces())
def test_sigma1_step_commutes_with_sigma2(piece):
    k, x = piece
    box = k + 2  # the reference clips nothing up to degree k + 3
    sigma1_first = mul_sigma2(as_terms(_sigma1_step(x, k), k + 1), box)
    sigma2_first = _sigma1_step(as_piece(mul_sigma2(as_terms(x, k), box), k + 2), k + 2)
    assert sigma1_first == as_terms(sigma2_first, k + 3)


def test_box_only_picks_the_coefficients_read():
    # sigma1^k in the 2 x d box is the unboxed piece with s_(k-b, b) dropped
    # where k - b > d: a first row only grows, so nothing re-enters the box
    for d in range(1, 9):
        x = [1]
        for k in range(2 * d + 2):
            x = _sigma1_step(x, k)
            boxed = {(k + 1 - b, b): c for b, c in enumerate(x) if k + 1 - b <= d}
            assert iterate(d, 0, k + 1) == boxed, (d, k)
