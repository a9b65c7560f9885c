"""Cross-validation of the flex-multiple computations."""

from __future__ import annotations

import random
from itertools import repeat
from math import comb, factorial
from operator import add, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_reference import mul_sigma2, pieri_sigma1

from flexk3 import cli, flexdeg, schubert
from flexk3.exact import catalan, exact_div
from flexk3.flexdeg import (
    _double_sum_raw,
    FlexReport,
    cross_check,
    flex_report,
    nd_chern_monomial,
    nd_chern_schubert,
    nd_closed,
    nd_double_sum,
    nd_factorial,
)
from flexk3.schubert import _sigma1_column, _sigma1_step, monomial_integral

ND_FIRST_NINE = [3, 20, 175, 1764, 19404, 226512, 2760615, 34763300, 449141836]


def test_closed_matches_table():
    assert [nd_closed(d) for d in range(1, 10)] == ND_FIRST_NINE


def test_factorial_matches_table():
    assert [nd_factorial(d) for d in range(1, 10)] == ND_FIRST_NINE


def test_double_sum_raw_sign_discrepancy():
    # the printed expression comes out negative; the resolved value flips it
    raw, resolved = nd_double_sum(1)
    assert raw == -3
    assert resolved == 3


def double_sum_by_comb(d: int) -> int:
    """The printed double sum with every head C(3d-j, 2d+l) taken by math.comb:
    the form _double_sum_raw had before its Pascal-row sweep, kept as a reference."""
    tail = [comb(2 * d + ell, 2 * ell - 1) * catalan(ell) for ell in range(1, d + 1)]
    total = 0
    for j in range(d + 1):
        sign = -1 if j % 2 == 0 else 1
        heads = map(comb, repeat(3 * d - j), range(2 * d + 1, 3 * d - j + 1))
        total += sign * comb(4 * d + 2, j) * sum(map(mul, heads, tail[: d - j]))
    return total


def double_sum_by_pascal(d: int) -> int:
    """The printed double sum with its heads C(3d-j, 2d+l) stepped as rows of
    Pascal's triangle, j = d down to 0: the form _double_sum_raw had before it
    summed over j in closed form, kept as a reference."""
    tail = [comb(2 * d + ell, 2 * ell - 1) * catalan(ell) for ell in range(1, d + 1)]
    total = 0
    row = [1]  # C(2d, 2d + l) for j = d: the only head is l = 0
    for j in range(d - 1, -1, -1):
        row = [comb(3 * d - j, 2 * d)] + list(map(add, row[1:], row[:-1])) + [1]
        sign = -1 if j % 2 == 0 else 1
        total += sign * comb(4 * d + 2, j) * sum(map(mul, row[1:], tail))
    return total


def four_factorial_terms(d: int) -> tuple[int, int]:
    """(2d)! (2d+1)! and d!^2 (d+1)!^2 from four separate factorials: the form
    nd_factorial had before it built each factorial once, kept as a reference."""
    num = factorial(2 * d) * factorial(2 * d + 1)
    den = factorial(d) ** 2 * factorial(d + 1) ** 2
    return num, den


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 60))
def test_pascal_sweep_matches_comb_form(d):
    assert double_sum_by_pascal(d) == double_sum_by_comb(d)


def test_pascal_sweep_matches_comb_form_d200():
    assert double_sum_by_pascal(200) == double_sum_by_comb(200)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300))
@example(300)
def test_one_ratio_sweep_matches_comb_form(d):
    assert _double_sum_raw(d) == double_sum_by_comb(d)


def test_closed_inner_sum_matches_pascal_sweep():
    for d in [*range(1, 121), 200, 400]:
        assert _double_sum_raw(d) == double_sum_by_pascal(d), d


def test_double_sum_makes_one_asserted_division_per_step(monkeypatch):
    calls = []

    def recording_div(a, b):
        calls.append((a, b))
        return exact_div(a, b)

    monkeypatch.setattr(flexdeg, "exact_div", recording_div)
    assert _double_sum_raw(7) == -ND_FIRST_NINE[6]
    assert len(calls) == 7 - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2000))
def test_factorial_matches_four_factorial_quotient(d):
    assert nd_factorial(d) == exact_div(*four_factorial_terms(d))


def test_factorial_makes_one_asserted_division(monkeypatch):
    calls = []

    def recording_div(a, b):
        calls.append((a, b))
        return exact_div(a, b)

    monkeypatch.setattr(flexdeg, "exact_div", recording_div)
    assert nd_factorial(7) == ND_FIRST_NINE[6]
    assert calls == [(factorial(14), 8 * factorial(7) ** 2)]


@pytest.mark.parametrize("d", [3578, 4000, 20000])
def test_factorial_matches_closed_form_large_d(d):
    assert nd_factorial(d) == nd_closed(d)


def test_factorial_asserts_its_root_division(monkeypatch):
    d = 7

    def poisoned(n):
        return factorial(n) + 1 if n == 2 * d else factorial(n)

    monkeypatch.setattr(flexdeg, "factorial", poisoned)
    with pytest.raises(ArithmeticError):
        nd_factorial(d)


def test_double_sum_matches_table():
    for d, expected in enumerate(ND_FIRST_NINE, start=1):
        raw, resolved = nd_double_sum(d)
        assert resolved == expected
        assert raw == -expected


def test_chern_monomial_matches_table():
    assert [nd_chern_monomial(d) for d in range(1, 10)] == ND_FIRST_NINE


@pytest.mark.parametrize("d", [1, 2, 3, 57, 1000, 2000])
def test_chern_monomial_catalan_column_matches_closed_form(d):
    assert nd_chern_monomial(d) == nd_closed(d)


@pytest.mark.parametrize(
    "wrong, message",
    [
        (lambda c: c + 1, "to divide"),  # breaks an exact ratio step
        (lambda c: 2 * c, r"ends at 2, not C\(0\) = 1"),  # passes every step
    ],
    ids=["plus-one", "doubled"],
)
def test_chern_monomial_checks_its_catalan_column(monkeypatch, wrong, message):
    # the column is anchored at one closed-form integral, C(d); a wrong
    # anchor must fail a ratio step or miss C(0) = 1 at the end
    calls = []

    def wrong_integral(m, n, d):
        calls.append((m, n, d))
        return wrong(monomial_integral(m, n, d))

    monkeypatch.setattr(flexdeg, "monomial_integral", wrong_integral)
    with pytest.raises(ArithmeticError, match=message):
        nd_chern_monomial(5)
    assert calls == [(10, 0, 5)]


def test_chern_schubert_matches_table():
    assert [nd_chern_schubert(d) for d in range(1, 10)] == ND_FIRST_NINE


def test_rejects_nonpositive_d():
    for func in (nd_closed, nd_factorial, nd_chern_monomial, nd_chern_schubert, flex_report):
        with pytest.raises(ValueError):
            func(0)
    with pytest.raises(ValueError):
        nd_double_sum(-1)


def test_flex_report_fields(capsys):
    report = flex_report(4)
    assert report == FlexReport(4, 1764, 1764, -1764, 1764, 1764, 1764, True)
    assert tuple(report) == (4, 1764, 1764, -1764, 1764, 1764, 1764, True)
    assert cli.main(["table", "--from", "4", "--to", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == ",".join(FlexReport._fields)


def test_cross_check_range_validation():
    with pytest.raises(ValueError):
        cross_check(3, 2)
    with pytest.raises(ValueError):
        cross_check(0, 5)


def test_cross_check_single_d():
    (report,) = cross_check(10, 10)
    assert report.agree
    assert report.n_closed == 21 * catalan(10) ** 2


def test_parity_and_positivity():
    # 2d + 1 is odd and C(d) is odd exactly when d = 2^k - 1, so n_d is odd
    # exactly when d + 1 is a power of two.
    for d in range(1, 41):
        n = nd_closed(d)
        assert n > 0
        assert (n % 2 == 1) == (d & (d + 1) == 0)


def pieri_walk(d: int, n: int) -> int:
    """Integral of sigma1^(2d-2n) * sigma2^n, one Pieri step at a time from s_(0,0)."""
    terms = {(0, 0): 1}
    for _ in range(n):
        terms = mul_sigma2(terms, d)
    for _ in range(2 * d - 2 * n):
        terms = pieri_sigma1(terms, d)
    return terms.get((d, d), 0)


@pytest.fixture
def empty_walk(monkeypatch):
    """Start from a fresh sigma1 walk, s_(0,0) alone, whatever ran before."""
    monkeypatch.setattr(schubert, "_walk", ([1], (1,)))


def test_sigma1_column_matches_pieri_walks(empty_walk):
    # nd_chern_schubert pairs linearly against the column, so matching every
    # boxed monomial integral covers any Chern coefficients.
    for d in range(1, 13):
        column = _sigma1_column(d)
        assert len(column) == d + 1
        for n in range(d):
            assert column[d - n] == pieri_walk(d, n), (d, n)


def test_chern_schubert_in_any_order(empty_walk):
    ds = list(range(1, 41))
    random.Random(22).shuffle(ds)
    assert [nd_chern_schubert(d) for d in ds] == [nd_closed(d) for d in ds]


def test_rising_run_walks_two_steps_per_d(empty_walk, monkeypatch):
    calls = []

    def counting_step(x, k, d):
        calls.append(k)
        return _sigma1_step(x, k, d)

    monkeypatch.setattr(schubert, "_sigma1_step", counting_step)
    D = 30
    expected = [nd_closed(d) for d in range(1, D + 1)]
    assert [nd_chern_schubert(d) for d in range(1, D + 1)] == expected
    assert calls == list(range(2 * D))
    calls.clear()
    assert [nd_chern_schubert(d) for d in range(1, D + 1)] == expected
    assert calls == []


@pytest.mark.parametrize("m", [1, 2, 7, 20])
def test_interrupted_walk_leaves_later_results_correct(empty_walk, monkeypatch, m):
    calls = []

    def failing_step(x, k, d):
        calls.append(k)
        if len(calls) == m:
            raise KeyboardInterrupt
        return _sigma1_step(x, k, d)

    monkeypatch.setattr(schubert, "_sigma1_step", failing_step)
    with pytest.raises(KeyboardInterrupt):
        nd_chern_schubert(12)
    later = (12, 3, 15, 1)
    assert [nd_chern_schubert(d) for d in later] == [nd_closed(d) for d in later]


def test_sigma1_step_matches_pieri_exhaustively():
    rng = random.Random(4)
    for d in range(1, 9):
        for k in range(2 * d):
            for _ in range(5):
                # random degree-k piece, zero outside the box (k - b > d)
                x = [rng.randint(-10**6, 10**6) if k - b <= d else 0 for b in range(k // 2 + 1)]
                want = pieri_sigma1({(k - b, b): c for b, c in enumerate(x) if k - b <= d}, d)
                got = _sigma1_step(x, k, d)
                assert len(got) == (k + 1) // 2 + 1
                assert got == [want.get((k + 1 - b, b), 0) for b in range(len(got))], (d, k, x)


@pytest.mark.parametrize("d", [60, 100, 200, 400, 1000])
def test_five_way_agreement_large_d(d):
    report = flex_report(d)
    assert report.agree
    assert report.n_sum_raw == -report.n_closed
