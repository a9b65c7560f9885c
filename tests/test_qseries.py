"""Tests for the q-series engine, crossover, and growth diagnostics."""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings, strategies as st

from flexk3 import cli, qseries
from flexk3.exact import binomial, exact_div
from flexk3.flexdeg import nd_closed
from flexk3.qseries import (
    CrossoverRow,
    asym_flex,
    asym_yz,
    crossover,
    divisor_sums,
    euler_power_neg24,
    euler_power_neg24_by_product,
    yz_multiple,
)

A_SMALL = [
    1,
    24,
    324,
    3200,
    25650,
    176256,
    1073720,
    5930496,
    30178575,
    143184000,
    639249300,
    2705114880,
    10914317934,
]


def sigma_recurrence(N: int) -> list[int]:
    """a(0..N) by n a(n) = 24 sum_{k=1}^{n} sigma(k) a(n-k): an O(N^2)
    reference that uses the divisor sums, not Jacobi's identity."""
    sigma = divisor_sums(N)
    a = [0] * (N + 1)
    a[0] = 1
    for n in range(1, N + 1):
        acc = 0
        for k in range(1, n + 1):
            acc += sigma[k] * a[n - k]
        a[n] = exact_div(24 * acc, n)
    return a


def direct_euler_cube(N: int) -> list[int]:
    """prod_{n <= N} (1 - q^n)^3 truncated at q^N, one factor (1 - q^n) at a time."""
    coeffs = [1] + [0] * N
    for n in range(1, N + 1):
        for _ in range(3):
            for i in range(N, n - 1, -1):
                coeffs[i] -= coeffs[i - n]
    return coeffs


def product_by_factors(N: int) -> tuple[int, ...]:
    """a(0..N) by expanding prod_{n <= N} (1 - q^n)^24 factor by factor, each
    factor as sum_j (-1)^j C(24, j) q^(nj), and inverting it term by term:
    the product oracle's expansion before Kronecker substitution."""
    signed = [(-1) ** j * binomial(24, j) for j in range(25)]
    power = [1] + [0] * N
    for n in range(1, N + 1):
        before = power[:]
        for j in range(1, min(24, N // n) + 1):
            shift = n * j
            power[shift:] = map(add, power[shift:], map(signed[j].__mul__, before[: N + 1 - shift]))
    coeffs = [1] + [0] * N
    for n in range(1, N + 1):
        coeffs[n] = -sum(map(mul, power[1 : n + 1], coeffs[n - 1 :: -1]))
    return tuple(coeffs)


def truncated_powers(e: list[int], top: int) -> list[list[int]]:
    """E^0, E^1, ..., E^top, each truncated at q^N, N = len(e) - 1: every
    power is the one before times E, one nonzero term of E at a time."""
    N = len(e) - 1
    powers = [[1] + [0] * N]
    for _ in range(top):
        power = [0] * (N + 1)
        for k, c in enumerate(e):
            if c:
                power[k:] = map(add, power[k:], map(c.__mul__, powers[-1][: N + 1 - k]))
        powers.append(power)
    return powers


@cache
def reference_600() -> tuple[int, ...]:
    return tuple(sigma_recurrence(600))


def test_divisor_sums_sieve():
    assert divisor_sums(12) == [0, 1, 3, 4, 7, 6, 12, 8, 15, 13, 18, 12, 28]


@given(st.integers(min_value=0, max_value=500))
@example(0)
@example(1)
@example(500)
def test_divisor_sums_match_the_double_loop(N):
    sums = [0] * (N + 1)
    for div in range(1, N + 1):
        for k in range(div, N + 1, div):
            sums[k] += div
    assert divisor_sums(N) == sums


def test_euler_series_known_coefficients():
    assert list(euler_power_neg24(12)) == A_SMALL


def test_euler_series_positive_and_increasing():
    series = euler_power_neg24(201)
    assert series[0] == 1
    for n in range(1, 201):
        assert series[n] > 0
    for n in range(1, 200):
        assert series[n + 1] > series[n]


def test_recurrence_matches_product_oracle():
    assert euler_power_neg24(400) == euler_power_neg24_by_product(400)
    assert euler_power_neg24(1000) == euler_power_neg24_by_product(1000)
    assert euler_power_neg24(2000) == euler_power_neg24_by_product(2000)


def test_product_oracle_matches_factor_expansion():
    for N in [*range(1, 151), 400]:
        assert euler_power_neg24_by_product(N) == product_by_factors(N), N


def test_product_oracle_bounds_its_slots_with_binomial(monkeypatch):
    calls = []

    def recording_binomial(n, k):
        calls.append((n, k))
        return binomial(n, k)

    monkeypatch.setattr(qseries, "binomial", recording_binomial)
    assert euler_power_neg24_by_product(3) == (1, 24, 324, 3200)
    # one bound per power on the chain E, E^2, E^3, E^6, E^12, j <= min(m, N);
    # E^24 is sized off E^12 read back
    assert calls == [(m, j) for m in (1, 2, 3, 6, 12) for j in range(min(m, 3) + 1)]


def test_euler_power_24_matches_convolution_and_fits_each_power_in_its_slots():
    # E^m, m <= 12, sits in w_m-byte slots, w_m the least whose half exceeds
    # sum_{j <= min(m, N)} C(m, j) L^j; each truncated power must fit them, and
    # some N below needs every w_m whole, so a byte fewer in any slot misreads.
    needs_every_byte = set()
    for N in [*range(1, 61), 400]:
        e = qseries._euler_product(N)
        powers = truncated_powers(e, 24)
        assert qseries._euler_power_24(e) == powers[24], N
        ell = sum(map(abs, e)) - 1
        for m in (1, 2, 3, 6, 12):
            bound = sum(binomial(m, j) * ell**j for j in range(min(m, N) + 1))
            width = bound.bit_length() // 8 + 1
            largest = max(map(abs, powers[m]))
            assert largest <= bound and largest < 1 << 8 * width - 1, (N, m)
            if largest.bit_length() >= 8 * width - 8:
                needs_every_byte.add(m)
    assert needs_every_byte == {1, 2, 3, 6, 12}


def test_euler_power_24_sizes_its_square_off_the_twelfth_power():
    # E^24 = (E^12)^2 sits in w-byte slots, w the least whose half exceeds
    # sum_j a_j^2 over E^12 = sum_j a_j q^j truncated at q^N: by Cauchy-Schwarz
    # that sum bounds every coefficient of the truncated square, and some N
    # below needs the whole slot, so a byte fewer misreads.
    needs_top_byte = []
    for N in [*range(1, 61), 400]:
        e = qseries._euler_product(N)
        twelfth = truncated_powers(e, 12)[12]
        tau = [sum(map(mul, twelfth[: k + 1], reversed(twelfth[: k + 1]))) for k in range(N + 1)]
        assert qseries._euler_power_24(e) == tau, N
        bound = sum(map(mul, twelfth, twelfth))
        width = bound.bit_length() // 8 + 1
        largest = max(map(abs, tau))
        assert largest <= bound and largest < 1 << 8 * width - 1, N
        if largest.bit_length() >= 8 * width - 8:
            needs_top_byte.append(N)
    assert needs_top_byte


@cache
def factor_expansion_2000() -> list[int]:
    """prod_{n <= 2000} (1 - q^n) truncated at q^2000, one factor at a time by
    plain list subtraction; its first N + 1 terms are the product to q^N."""
    e = [1] + [0] * 2000
    for n in range(1, 2001):
        e[n:] = map(sub, e[n:], e[: 2001 - n])
    return e


def test_euler_product_is_the_factor_by_factor_expansion():
    # Counting the choices of j distinct factors by the staircase j, ..., 1
    # must give the product itself at every truncation.
    for N in [*range(1, 301), 400, 1000, 2000]:
        assert qseries._euler_product(N) == factor_expansion_2000()[: N + 1], N


def test_euler_product_divides_level_by_level(monkeypatch):
    # Level j, from J (J(J+1)/2 <= N) down to 1, divides a series cut at
    # q^(N - j(j+1)/2) by 1 - q^j, one running sum along each residue class
    # mod j: J levels, J(J+1)/2 strided passes, 339 additions at q^60 and
    # 6,799 at q^400, about (2 sqrt(2) / 3) N^(3/2).
    passes = []

    def recording_accumulate(seq):
        passes.append(len(seq))
        return accumulate(seq)

    monkeypatch.setattr(qseries, "accumulate", recording_accumulate)
    for N, J, additions in ((60, 10, 339), (400, 27, 6799)):
        passes.clear()
        assert qseries._euler_product(N) == factor_expansion_2000()[: N + 1], N
        assert J * (J + 1) // 2 <= N < (J + 1) * (J + 2) // 2
        cut = {j: N - j * (j + 1) // 2 for j in range(1, J + 1)}
        assert passes == [len(range(r, cut[j] + 1, j)) for j in range(J, 0, -1) for r in range(j)]
        assert len(passes) == J * (J + 1) // 2
        assert sum(max(length - 1, 0) for length in passes) == additions


def test_ramanujan_check_sieves_sigma_11_as_the_double_loop():
    # tau(m) := sigma_11(m) from the double loop over every divisor must pass
    # the check at each length N, so its pairs sieve agrees mod 691 at every
    # m <= N; one value moved by 1 must fail, named by its m.
    top = 3000
    sigma11 = [0] * (top + 1)
    for div in range(1, top + 1):
        for m in range(div, top + 1, div):
            sigma11[m] += div**11
    lengths = [*range(1, 200), *(k * k + s for k in range(15, 55) for s in (-1, 0, 1)), top]
    for N in lengths:
        qseries._check_ramanujan_691(sigma11[1 : N + 1])
    for m in (1, 2, 961, 2999, 3000):
        moved = sigma11[1:]
        moved[m - 1] += 1
        with pytest.raises(ArithmeticError, match=rf"tau\({m}\) = sigma_11\({m}\)"):
            qseries._check_ramanujan_691(moved)


def test_product_oracle_checks_ramanujan_congruence(monkeypatch):
    power = qseries._euler_power_24

    def one_tau_off(N):
        tau = power(N)
        tau[6] += 2**64  # tau(7)
        return tau

    monkeypatch.setattr(qseries, "_euler_power_24", one_tau_off)
    with pytest.raises(ArithmeticError, match=r"tau\(7\)"):
        euler_power_neg24_by_product(20)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=200))
def test_product_oracle_ties_its_series_to_the_power(data, N):
    # A multiple of 691 added to one tau keeps Ramanujan's congruence, so only
    # sum_k tau(k+1) a(N-k) = 0 at the top index can see it.
    at = data.draw(st.integers(min_value=0, max_value=N), label="index")
    delta = 691 * data.draw(st.integers(min_value=-(10**30), max_value=10**30).filter(bool))
    power = qseries._euler_power_24

    def one_tau_moved(e):
        tau = power(e)
        tau[at] += delta
        return tau

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_euler_power_24", one_tau_moved)
        with pytest.raises(ArithmeticError, match=rf"at q\^{N}$"):
            euler_power_neg24_by_product(N)


@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(min_value=1, max_value=200))
def test_product_oracle_fails_on_a_wrong_expansion_sign(data, N):
    # The recurrence reads its terms e_k off the expanded list, so a flipped
    # e_k gives the series of a wrong product, which some check must refuse.
    expand = qseries._euler_product
    at = data.draw(st.sampled_from([k for k, c in enumerate(expand(N)) if c][1:]), label="k")

    def one_sign_flipped(M):
        e = expand(M)
        e[at] = -e[at]
        return e

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_euler_product", one_sign_flipped)
        with pytest.raises(ArithmeticError):
            euler_power_neg24_by_product(N)


def test_product_oracle_divides_once_per_coefficient(monkeypatch):
    # The power rule gives n a(n), so each a(n) of E^(-24) takes one asserted
    # division by n, and nothing else in the oracle divides.
    divisors = []

    def recording_div(a, b):
        divisors.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(qseries, "exact_div", recording_div)
    assert euler_power_neg24_by_product(400) == reference_600()[:401]
    assert divisors == list(range(1, 401))


def test_rising_requests_sieve_divisor_sums_log_times(monkeypatch):
    # One sieve per extension, at its top index: each grows the series to
    # max(N, 5L/4), L its length, so d = 1..599 extends 23 times.
    sieved = []

    def recording_sums(N):
        sieved.append(N)
        return divisor_sums(N)

    monkeypatch.setattr(qseries, "_longest", ())
    monkeypatch.setattr(qseries, "divisor_sums", recording_sums)
    assert [yz_multiple(d) for d in range(1, 600)] == list(reference_600()[2:])
    assert sieved == [
        *(2, 3, 5, 7, 10, 13, 17, 22, 28, 36, 46, 58),
        *(73, 92, 116, 146, 183, 230, 288, 361, 452, 566, 708),
    ]


def test_jacobi_terms_match_direct_cube():
    direct = direct_euler_cube(300)
    for N in range(1, 301):
        dense = [1] + [0] * N
        for t, c in qseries._jacobi_cube_terms(N):
            dense[t] = c
        assert dense == direct[: N + 1], N


def test_jacobi_series_matches_sigma_recurrence():
    assert list(euler_power_neg24(1000)) == sigma_recurrence(1000)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=8))
@example([1, 2, 1, 150, 150, 149])  # one past the cached length, then hits
@example([3, 7, 302, 600, 12, 599])  # growing extensions, then slices
@example([400, 401, 450])  # one past the cached length grows by a quarter, then a slice
def test_prefix_cache_serves_any_request_order(bounds):
    qseries._longest = ()
    for N in bounds:
        series = euler_power_neg24(N)
        assert len(series) == N + 1
        assert series == reference_600()[: N + 1]


# A poison of 1 breaks an exact division of the extension to q^300.  One of
# lcm(1..300) passes all of them, so only the divisor-sum certificate sees it.
# A request for 210 is past the 201 cached coefficients but short of a quarter
# more, so its extension, and the certificate, runs to q^251.
LCM_TO_300 = math.lcm(*range(1, 301))


@pytest.mark.parametrize(
    "poisoned_at, delta, asked, message",
    [pytest.param(at, 1, 300, "to divide", id=str(at)) for at in (1, 100, 200)]
    + [
        pytest.param(at, LCM_TO_300, 300, r"divisor-sum identity at q\^300", id=f"{at}-lcm")
        for at in (1, 100, 200)
    ]
    + [pytest.param(200, LCM_TO_300, 210, r"divisor-sum identity at q\^251", id="200-lcm-grown")],
)
def test_poisoned_cache_fails_loudly(monkeypatch, poisoned_at, delta, asked, message):
    poisoned = list(reference_600()[:201])
    poisoned[poisoned_at] += delta
    poisoned = tuple(poisoned)
    monkeypatch.setattr(qseries, "_longest", poisoned)
    with pytest.raises(ArithmeticError, match=message):
        euler_power_neg24(asked)
    assert qseries._longest is poisoned


def test_extension_resumes_from_every_short_prefix(monkeypatch):
    # Prefixes of 1..64 coefficients start the extension on the one-term
    # read (n = 1, 2) and at t_k - 1, t_k and t_k + 1 for every k <= 10, so
    # the stepped weights and each gather are entered from every phase.
    monkeypatch.setattr(qseries, "_longest", ())
    fresh = euler_power_neg24(120)
    assert fresh == euler_power_neg24_by_product(120) == reference_600()[:121]
    for length in range(1, 65):
        monkeypatch.setattr(qseries, "_longest", reference_600()[:length])
        assert euler_power_neg24(120) == fresh, length


def test_extension_divides_once_per_new_coefficient(monkeypatch):
    divisors = []

    def recording_div(a, b):
        divisors.append(b)
        return exact_div(a, b)

    monkeypatch.setattr(qseries, "_longest", ())
    euler_power_neg24(300)
    monkeypatch.setattr(qseries, "exact_div", recording_div)
    assert euler_power_neg24(400) == reference_600()[:401]
    assert divisors == list(range(301, 401))
    divisors.clear()
    # one past the cached q^400 extends by a quarter of its 401 terms
    assert euler_power_neg24(401) == reference_600()[:402]
    assert divisors == list(range(401, 502))


def test_build_steps_only_the_weights_in_reach(monkeypatch):
    # One weight addition per Jacobi term with t_k <= n at each n: a weight
    # for every term up to the top index at every n would make 300 * 24.
    additions = []

    def counting_add(x, y):
        additions.append(None)
        return add(x, y)

    monkeypatch.setattr(qseries, "_longest", ())
    monkeypatch.setattr(qseries, "add", counting_add)
    assert euler_power_neg24(300) == reference_600()[:301]
    in_reach = sum(len(qseries._jacobi_cube_terms(n)) for n in range(1, 301))
    assert len(additions) == in_reach == 4624


def test_certificate_catches_a_wrong_jacobi_sign(monkeypatch):
    terms = qseries._jacobi_cube_terms

    def one_sign_flipped(N):
        table = terms(N)
        t, c = table[-1]
        return table[:-1] + [(t, -c)]

    monkeypatch.setattr(qseries, "_jacobi_cube_terms", one_sign_flipped)
    monkeypatch.setattr(qseries, "_longest", ())
    with pytest.raises(ArithmeticError):
        euler_power_neg24(50)
    assert qseries._longest == ()


def test_yz_multiple_values():
    assert yz_multiple(1) == 324
    assert yz_multiple(2) == 3200
    assert yz_multiple(8) == 143184000
    assert yz_multiple(50) > 0


def test_series_requires_positive_bound():
    with pytest.raises(ValueError):
        euler_power_neg24(0)
    with pytest.raises(ValueError):
        euler_power_neg24_by_product(0)
    with pytest.raises(ValueError):
        yz_multiple(0)


def test_crossover_first_row(capsys):
    rows, first, model_first = crossover(3)
    assert rows[0] == CrossoverRow(1, 3, 324, False)
    assert cli.main(["crossover", "--max-d", "3", "--format", "csv"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert lines == [",".join(CrossoverRow._fields)] + [
        f"{d},{n_d},{yz_d},{str(larger).lower()}" for d, n_d, yz_d, larger in rows
    ]


def test_crossover_switch_location():
    report = crossover(20)
    assert report.first_flex_dominant == 10
    assert report.model_first_flex_dominant == 11
    for row in report.rows:
        assert row.flex_larger == (row.d >= 10)
    # set against a(d) or a(d + 2) in place of yz_d = a(d + 1), n_d first wins at d = 8 or 11
    series = euler_power_neg24(22)
    for offset, first in ((0, 8), (2, 11)):
        wins = [row.n_d > series[row.d + offset] for row in report.rows]
        assert wins == [d >= first for d in range(1, 21)], offset


def test_crossover_none_in_short_range():
    report = crossover(1)
    assert report.first_flex_dominant is None
    assert report.model_first_flex_dominant is None


def test_crossover_column_equals_closed_form_to_2000():
    assert [row.n_d for row in crossover(2000).rows] == [nd_closed(d) for d in range(1, 2001)]


def test_crossover_column_checked_against_closed_form(monkeypatch):
    monkeypatch.setattr(qseries, "nd_closed", lambda d: nd_closed(d) + 1)
    with pytest.raises(ArithmeticError, match="nd_closed"):
        crossover(50)


def test_crossover_checks_its_permanence(monkeypatch):
    # n_d first exceeds yz_d = a(d + 1) at d = 10; a(21) above n_20 flips it back
    real = euler_power_neg24

    def flipped(N):
        series = list(real(N))
        series[21] = nd_closed(20) + 1
        return tuple(series)

    monkeypatch.setattr(qseries, "euler_power_neg24", flipped)
    with pytest.raises(ArithmeticError, match="not permanent: n_20 <= yz_20 after d=10"):
        crossover(30)


def test_asym_flex_report_fields():
    report = asym_flex(1)
    d, *logs = report
    assert d == report.d == 1
    assert logs == [report.log_exact, report.log_model, report.log_ratio]
    assert math.isclose(report.log_exact, math.log(3), rel_tol=1e-12)
    assert math.isclose(
        report.log_ratio, report.log_exact - report.log_model, rel_tol=1e-12
    )


def test_asym_finite_at_d1():
    report = asym_yz(1)
    assert math.isfinite(report.log_exact)
    assert math.isfinite(report.log_model)
    with pytest.raises(ValueError):
        asym_flex(0)
    with pytest.raises(ValueError):
        asym_yz(0)
