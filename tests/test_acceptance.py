"""Acceptance suite: one test per primary criterion.

Each test prints a PASS line with its measured runtime directly to the
terminal (bypassing capture), so a `pytest tests/test_acceptance.py -v`
run shows one line per criterion from pytest plus the timing summary.
Runtime budgets are asserted, not just reported.  The built-in
`selftest` criteria are defined once, in cli.SELFTEST_CHECKS:
test_selftest_check runs each entry through cli.run_check.
"""

from __future__ import annotations

import csv
import io
import time

import pytest

from flexk3 import cli
from flexk3.exact import catalan
from flexk3.flexdeg import nd_double_sum, nd_factorial
from flexk3.qseries import asym_flex, asym_yz, euler_power_neg24, euler_power_neg24_by_product

ND_FIRST_NINE = [3, 20, 175, 1764, 19404, 226512, 2760615, 34763300, 449141836]

# Seconds allowed per registry check, one entry for each check and no other.
SELFTEST_BUDGETS = {
    "five-way": 120,
    "pieri-integral": 20,
    "qseries-product": 30,
    "example-checks": 5,
}


def announce(capsys, name: str, detail: str, elapsed: float, budget: float) -> None:
    with capsys.disabled():
        print(f"\nPASS {name}: {detail} ({elapsed:.2f}s, budget {budget:.0f}s)")


def test_flex_table_reproduction(capsys):
    start = time.monotonic()
    code = cli.main(["table", "--from", "1", "--to", "9", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 9
    for row, expected in zip(rows, ND_FIRST_NINE):
        for field in ("n_closed", "n_factorial", "n_sum_resolved",
                      "n_chern_monomial", "n_chern_schubert"):
            assert row[field] == str(expected)
        assert row["agree"] == "true"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(capsys, "flex-table-reproduction",
             "nine rows exact in every method column, agree=true", elapsed, 5)


def test_catalan_identity_d1000(capsys):
    start = time.monotonic()
    for d in range(1, 1001):
        assert nd_factorial(d) == (2 * d + 1) * catalan(d) ** 2
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    announce(capsys, "catalan-identity",
             "(2d)!(2d+1)!/(d!^2 (d+1)!^2) = (2d+1) C(d)^2 for d=1..1000", elapsed, 30)


def test_double_sum_sign_and_table(capsys):
    start = time.monotonic()
    raw_1, _ = nd_double_sum(1)
    assert raw_1 == -3
    for d, expected in enumerate(ND_FIRST_NINE, start=1):
        _, resolved = nd_double_sum(d)
        assert resolved == expected
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    announce(capsys, "double-sum-sign",
             "raw d=1 value is -3; resolved values match the table for d=1..9",
             elapsed, 5)


def test_qseries_oracle(capsys):
    start = time.monotonic()
    series = euler_power_neg24(200)
    assert series == euler_power_neg24_by_product(200)
    assert (series[0], series[1], series[2]) == (1, 24, 324)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    announce(capsys, "qseries-oracle",
             "recurrence equals truncated product through q^200; a(0..2) = 1, 24, 324",
             elapsed, 30)


def test_crossover_report(capsys):
    start = time.monotonic()
    code = cli.main(["crossover", "--max-d", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "first flex-dominant d (exact coefficients): 10" in out
    assert "between d=8 and d=9" in out
    flags = {}
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0].isdigit():
            flags[int(parts[0])] = parts[3] == "true"
    assert len(flags) == 64
    first = min(d for d, larger in flags.items() if larger)
    assert all(flags[d] for d in range(first, 65))
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    announce(capsys, "crossover-report",
             f"switch at d={first}, permanent through d=64, claimed window printed",
             elapsed, 30)


def test_asymptotics(capsys):
    start = time.monotonic()
    assert abs(asym_flex(500).log_ratio) < 0.01
    flex_magnitudes = [abs(asym_flex(d).log_ratio) for d in (50, 100, 200, 400)]
    assert flex_magnitudes == sorted(flex_magnitudes, reverse=True)
    yz_report = asym_yz(1000)
    assert abs(yz_report.log_ratio) / yz_report.log_exact < 0.02
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    announce(capsys, "asymptotics",
             "flex model within 0.01 at d=500 and shrinking; yz model within 2% at d=1000",
             elapsed, 120)


@pytest.mark.parametrize("name, check", cli.SELFTEST_CHECKS,
                         ids=[name for name, _ in cli.SELFTEST_CHECKS])
def test_selftest_check(capsys, name, check):
    assert set(SELFTEST_BUDGETS) == {n for n, _ in cli.SELFTEST_CHECKS}, "budgets != registry"
    budget = SELFTEST_BUDGETS[name]
    _, status, elapsed, detail = cli.run_check(name, check)
    assert status == "PASS", detail
    assert elapsed < budget
    announce(capsys, name, detail, elapsed, budget)
