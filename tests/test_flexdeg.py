"""Cross-validation of the flex-multiple computations."""

from __future__ import annotations

import random
import re
from itertools import repeat
from math import comb, factorial, perm
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schubert_reference import integrate, iterate, pieri_sigma1

from flexk3 import cli, exact, flexdeg, schubert
from flexk3.exact import _exact_div_short, catalan, exact_div
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
from flexk3.truncpoly import chern_total

ND_FIRST_NINE = [3, 20, 175, 1764, 19404, 226512, 2760615, 34763300, 449141836]


@pytest.mark.parametrize(
    "wrong, named",
    [
        (lambda d, raw: -raw, "[3, 20, 175, 1764, 19404]"),  # raw = +n_d at every d
        (lambda d, raw: raw + (d == 3), "[-3, -20, -174, -1764, -19404]"),
    ],
    ids=["consistent-flip", "off-by-one-at-3"],
)
def test_double_sum_sign_check_fails_loudly(monkeypatch, wrong, named):
    # raw must be -n_d at d = 1..5; any other values, a consistent flip included, raise
    real = flexdeg._double_sum_raw
    monkeypatch.setattr(flexdeg, "_double_sum_raw", lambda d: wrong(d, real(d)))
    flexdeg._double_sum_sign.cache_clear()
    with pytest.raises(ArithmeticError, match=re.escape(f"gives {named}, not -n_1..-n_5")):
        nd_double_sum(3)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 1500))
def test_double_sum_is_minus_nd_and_resolves_to_nd(d):
    assert nd_double_sum(d) == (-nd_closed(d), nd_closed(d))


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


def four_factorial_terms(d: int) -> tuple[int, int]:
    """(2d)! (2d+1)! and d!^2 (d+1)!^2 from four separate factorials: the form
    nd_factorial had before it built each factorial once, kept as a reference."""
    num = factorial(2 * d) * factorial(2 * d + 1)
    den = factorial(d) ** 2 * factorial(d + 1) ** 2
    return num, den


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300))
@example(300)
def test_one_ratio_sweep_matches_comb_form(d):
    assert _double_sum_raw(d) == double_sum_by_comb(d)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 400))
@example(600)
def test_routes_3_4_5_add_the_same_terms(d):
    # route 3's l-th term after its Chu-Vandermonde step, by math.comb, is route 4's
    # c_(d-l) C(l) and route 5's c_(d-l) times its Pieri column: chern_total term by term
    c, column = chern_total(d), _sigma1_column(d)
    for ell in range(1, d + 1):
        catalan_l = comb(2 * ell, ell) // (ell + 1)
        route3 = comb(2 * d + 1 - ell, d - ell) * comb(2 * d + ell, 2 * ell - 1) * catalan_l
        route3 *= (-1) ** (d - ell + 1)
        assert route3 == c[d - ell] * catalan_l, f"route 4's term differs at d={d}, l={ell}"
        assert route3 == c[d - ell] * column[ell], f"route 5's term differs at d={d}, l={ell}"


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
        return _exact_div_short(a, b)

    monkeypatch.setattr(flexdeg, "_exact_div_short", recording_div)
    monkeypatch.setattr(flexdeg, "exact_div", None)
    assert nd_factorial(7) == ND_FIRST_NINE[6]
    assert calls == [(perm(14, 7), factorial(8))]


@pytest.mark.parametrize("d", [3578, 4000, 20000])
def test_factorial_matches_closed_form_large_d(d):
    assert nd_factorial(d) == nd_closed(d)


def test_factorial_divides_on_the_short_path(monkeypatch):
    # route 2's root division needs no plain exact_div at any size
    monkeypatch.setattr(exact, "exact_div", None)
    for d in (1, 7, 33, 300, 2000):
        assert nd_factorial(d) == (2 * d + 1) * (comb(2 * d, d) // (d + 1)) ** 2


def test_factorial_asserts_its_root_division(monkeypatch):
    for name in ("perm", "factorial"):
        for d in (7, 600):
            with monkeypatch.context() as patch:
                real = getattr(flexdeg, name)
                patch.setattr(flexdeg, name, lambda *args: real(*args) + 1)
                with pytest.raises(ArithmeticError, match="^expected .* to divide .* exactly$"):
                    nd_factorial(d)


def test_factorial_takes_no_binomial_or_catalan(monkeypatch):
    expected = {d: (2 * d + 1) * (comb(2 * d, d) // (d + 1)) ** 2 for d in (7, 600)}

    def forbidden(*args):
        raise AssertionError("route 2 reached route 1's arithmetic")

    monkeypatch.setattr(flexdeg, "comb", forbidden)
    monkeypatch.setattr(flexdeg, "catalan", forbidden)
    monkeypatch.setattr(exact, "_central_binomial", forbidden)
    assert {d: nd_factorial(d) for d in expected} == expected


@pytest.mark.parametrize("d", [2000])
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


def test_chern_monomial_names_a_huge_column_end_by_its_bits(monkeypatch):
    # an anchor 10^5000 times C(d) passes every ratio step and ends at 10^5000; past
    # 4300 digits str() raises ValueError by default, so the message gives its size
    monkeypatch.setattr(flexdeg, "monomial_integral", lambda m, n, d: catalan(m // 2) * 10**5000)
    with pytest.raises(ArithmeticError, match=r"ends at a 16610-bit integer, not C\(0\) = 1$"):
        nd_chern_monomial(5)


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
    # past 4300 digits str() raises its own ValueError by default, so the range shows its size
    with pytest.raises(ValueError, match=r"^empty range \[a 16610-bit integer, 1\]$"):
        cross_check(10**5000, 1)


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


@pytest.fixture
def route_1_calls(monkeypatch):
    """flexdeg.catalan's arguments, on a cold nd_closed memo.  The memo is
    cleared again afterwards: values made under a patch must not outlive it."""
    calls = []
    monkeypatch.setattr(flexdeg, "catalan", lambda d: calls.append(d) or catalan(d))
    nd_closed.cache_clear()
    yield calls
    nd_closed.cache_clear()


def test_asym_flex_after_nd_closed_reads_one_build(route_1_calls):
    from flexk3.qseries import asym_flex, crossover

    assert nd_closed(1200) == (2 * 1200 + 1) * (comb(2400, 1200) // 1201) ** 2
    assert asym_flex(1200).d == 1200
    assert flex_report(1200).agree
    assert crossover(1200).rows[-1].n_d == nd_closed(1200)
    assert route_1_calls == [1200]
    assert nd_closed.cache_info().hits == 4


def test_memo_keeps_the_documented_bound(route_1_calls):
    bound = nd_closed.cache_info().maxsize
    assert bound == 32 and f"the last {bound} distinct d" in nd_closed.__doc__
    values = [nd_closed(d) for d in range(1, bound + 2)]  # one more distinct d than it holds
    assert route_1_calls == list(range(1, bound + 2))
    assert nd_closed(bound + 1) == values[-1] and nd_closed(2) == values[1]
    assert route_1_calls == list(range(1, bound + 2))  # both still held
    assert nd_closed(1) == values[0]  # the oldest was dropped: built again
    assert route_1_calls == [*range(1, bound + 2), 1]


def test_memo_keeps_int_and_float_apart():
    # 5.0 == 5 with one hash: an untyped memo would answer d=5.0 from d=5
    assert nd_closed(5) == nd_closed(d=5) == 19404
    with pytest.raises(TypeError):
        nd_closed(5.0)
    with pytest.raises(TypeError):
        nd_closed(d=5.0)


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
            assert column[d - n] == integrate(iterate(d, n, 2 * d - 2 * n), d), (d, n)


def test_chern_schubert_in_any_order(empty_walk):
    ds = list(range(1, 41))
    random.Random(22).shuffle(ds)
    assert [nd_chern_schubert(d) for d in ds] == [nd_closed(d) for d in ds]


def test_rising_run_walks_two_steps_per_d(empty_walk, monkeypatch):
    calls = []

    def counting_step(x, k):
        calls.append(k)
        return _sigma1_step(x, k)

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

    def failing_step(x, k):
        calls.append(k)
        if len(calls) == m:
            raise KeyboardInterrupt
        return _sigma1_step(x, k)

    monkeypatch.setattr(schubert, "_sigma1_step", failing_step)
    with pytest.raises(KeyboardInterrupt):
        nd_chern_schubert(12)
    later = (12, 3, 15, 1)
    assert [nd_chern_schubert(d) for d in later] == [nd_closed(d) for d in later]


def test_sigma1_step_matches_pieri_exhaustively():
    rng = random.Random(4)
    for k in range(16):
        for _ in range(20):
            # random degree-k piece; the reference's box k + 1 clips nothing
            x = [rng.randint(-10**6, 10**6) for _ in range(k // 2 + 1)]
            want = pieri_sigma1({(k - b, b): c for b, c in enumerate(x)}, k + 1)
            got = _sigma1_step(x, k)
            assert len(got) == (k + 1) // 2 + 1
            assert got == [want.get((k + 1 - b, b), 0) for b in range(len(got))], (k, x)


def refuse(*args):
    raise AssertionError("a route read the other Chern route's integrals")


@pytest.mark.parametrize("d", [7, 600])
def test_route_4_walks_no_pieri_step(monkeypatch, d):
    # routes 4 and 5 share chern_total only: the Catalan column reads no walk
    monkeypatch.setattr(schubert, "_sigma1_step", refuse)
    monkeypatch.setattr(schubert, "_sigma1_column", refuse)
    monkeypatch.setattr(flexdeg, "_sigma1_column", refuse)
    assert nd_chern_monomial(d) == (2 * d + 1) * (comb(2 * d, d) // (d + 1)) ** 2


@pytest.mark.parametrize("d", [7, 600])
def test_route_5_reads_no_closed_form_integral(empty_walk, monkeypatch, d):
    monkeypatch.setattr(flexdeg, "monomial_integral", refuse)
    assert nd_chern_schubert(d) == (2 * d + 1) * (comb(2 * d, d) // (d + 1)) ** 2


@pytest.mark.parametrize("d", [200, 400, 1000])
def test_five_way_agreement_large_d(d):
    report = flex_report(d)
    assert report.agree
    assert report.n_sum_raw == -report.n_closed
