"""The three workloads: inputs made from a seed, the call each item makes,
and the check that decides whether its answer is right.

Every check compares against values computed here from `math.comb` and
`math.log`, or against `refs.json`; none calls back into flexk3.  This
module does not import flexk3, so the parent process can make the CLI
commands and check their output without loading the package it times.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFS_PATH = os.path.join(HERE, "refs.json")

WORKLOADS = ("table-sweep", "query-mix", "series-check")

# table-sweep: every d in 1..TABLE_D once, one `table` row per call.
TABLE_D = 33
TABLE_FIELDS = (
    "d",
    "n_closed",
    "n_factorial",
    "n_sum_raw",
    "n_sum_resolved",
    "n_chern_monomial",
    "n_chern_schubert",
    "agree",
)

# query-mix: QUERY_PER_ROUTE calls per route.  A user drawing d with
# replacement from the route's range would repeat an earlier d in
# repeats(range size) of them on average; the rest are distinct values at
# the midpoints of equal strata of the range, and the repeats re-ask one
# value, chosen by the seed, from each of as many equal groups of those.
# Fixed strata, rather than a draw per value, keep the amount of work of
# each kind the same from seed to seed; the seed moves the re-asks and the
# order.
QUERY_ROUTES = {
    "nd_closed": (1, 2000),
    "nd_factorial": (1, 2000),
    "nd_double_sum": (1, 80),
    "nd_chern_monomial": (1, 24),
    "yz_multiple": (1, 300),
    "asym_yz": (1, 300),
    "asym_flex": (1, 2000),
}
QUERY_PER_ROUTE = 24

# series-check: one yz build, the product oracle, one crossover report.
SERIES_N = 2000
ORACLE_M = 400
CROSSOVER_D = 300

# The same query as a CLI command, for cli_s on query-mix.
QUERY_CLI = {
    "nd_closed": ("nd", "--method", "closed"),
    "nd_factorial": ("nd", "--method", "factorial"),
    "nd_double_sum": ("nd", "--method", "sum"),
    "nd_chern_monomial": ("nd", "--method", "monomial"),
    "asym_yz": ("asym", "--kind", "yz"),
    "asym_flex": ("asym", "--kind", "flex"),
}

# Printed values carry nine decimals; computed ones are off by far less.
LOG_ABS_TOL = 2e-9


class Wrong(Exception):
    """An answer that differs from its reference."""


def make_items(workload: str, seed: int) -> list[tuple[str, int]]:
    """The workload's items, in the order they are issued, as (kind, size)."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "table-sweep":
        items = [("row", d) for d in range(1, TABLE_D + 1)]
    elif workload == "query-mix":
        items = []
        for route, (lo, hi) in QUERY_ROUTES.items():
            size = hi - lo + 1
            n_again = repeats(size)
            n_fresh = QUERY_PER_ROUTE - n_again
            fresh = [lo + int((i + 0.5) * size / n_fresh) for i in range(n_fresh)]
            groups = [fresh[n_fresh * j // n_again : n_fresh * (j + 1) // n_again] for j in range(n_again)]
            items += [(route, d) for d in fresh + [rng.choice(group) for group in groups]]
    elif workload == "series-check":
        items = [("yz", SERIES_N), ("oracle", ORACLE_M), ("crossover", CROSSOVER_D)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(items)
    return items


def repeats(size: int) -> int:
    """Draws that repeat an earlier one, on average and rounded, among
    QUERY_PER_ROUTE drawn with replacement from `size` equally likely values."""
    draws = QUERY_PER_ROUTE
    return round(draws - size * (1 - (1 - 1 / size) ** draws))


def repeat_frac(items: list[tuple[str, int]]) -> float:
    """Share of items that ask exactly what an earlier item asked."""
    return (len(items) - len(set(items))) / len(items)


def run_cli_inprocess(main, argv: list[str]) -> tuple[int, str]:
    """Call cli.main as the console script would; return (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def cli_argv(item: tuple[str, int]) -> list[str] | None:
    """The flexk3 command line that answers item, or None for a library call."""
    kind, n = item
    if kind == "row":
        return ["table", "--from", str(n), "--to", str(n), "--format", "csv"]
    if kind == "table":
        return ["table", "--from", "1", "--to", str(n), "--format", "csv"]
    if kind == "yz":
        return ["yz", "--max-n", str(n), "--format", "csv"]
    if kind == "yz_text":
        return ["yz", "--max-n", str(n)]
    if kind == "crossover":
        return ["crossover", "--max-d", str(n), "--format", "csv"]
    if kind.startswith("cli_"):
        sub, flag, value = QUERY_CLI[kind[4:]]
        return [sub, "-d", str(n), flag, value]
    return None


def execute(item: tuple[str, int], flexk3, cli):
    """Issue one item against the package and its cli module; return the answer."""
    kind, n = item
    argv = cli_argv(item)
    if argv is not None:
        return run_cli_inprocess(cli.main, argv)
    if kind == "oracle":
        return flexk3.euler_power_neg24_by_product(n)
    return getattr(flexk3, kind)(n)


def cli_commands(workload: str) -> list[tuple[str, int]]:
    """The items whose CLI commands (see cli_argv) make up one repetition's cli_s.

    For query-mix that is one command per route, at the middle stratum of
    its range, so every repetition runs the same commands.
    """
    if workload == "table-sweep":
        return [("table", TABLE_D)]
    if workload == "series-check":
        return [("yz", SERIES_N), ("crossover", CROSSOVER_D)]
    commands = []
    for route, (lo, hi) in QUERY_ROUTES.items():
        d = lo + (hi - lo + 1) // 2
        commands.append(("yz_text", d + 1) if route == "yz_multiple" else ("cli_" + route, d))
    return commands


class References:
    """Reference values: n_d from math.comb, Yau-Zaslow data from refs.json."""

    def __init__(self, path: str = REFS_PATH):
        with open(path) as fh:
            refs = json.load(fh)
        self.yz_sha16: list[str] = refs["yz_sha16"]
        self.yz_log: dict[int, float] = {int(d): v for d, v in refs["yz_log"].items()}

    @staticmethod
    def nd(d: int) -> int:
        catalan = math.comb(2 * d, d) // (d + 1)
        return (2 * d + 1) * catalan * catalan

    @staticmethod
    def digest(value: int) -> str:
        return hashlib.sha256(str(value).encode()).hexdigest()[:16]

    def yz(self, n: int, value: int) -> None:
        if n >= len(self.yz_sha16) or self.digest(value) != self.yz_sha16[n]:
            raise Wrong(f"a({n}) = {value} does not match the reference")

    def asym(self, kind: str, d: int, log_exact: float, log_model: float, log_ratio: float) -> None:
        if kind == "flex":
            want_exact, want_model = math.log(self.nd(d)), _flex_model(d)
        else:
            want_exact, want_model = self.yz_log[d], _yz_model(d)
        for label, got, want in (
            ("log_exact", log_exact, want_exact),
            ("log_model", log_model, want_model),
            ("log_ratio", log_ratio, want_exact - want_model),
        ):
            if not math.isclose(got, want, rel_tol=1e-12, abs_tol=LOG_ABS_TOL):
                raise Wrong(f"asym {kind} d={d}: {label} {got!r}, expected {want!r}")


def _flex_model(d: int) -> float:
    """ln of the flex growth model 2^(4d+1) / (pi d^2)."""
    return (4 * d + 1) * math.log(2) - math.log(math.pi) - 2 * math.log(d)


def _yz_model(d: int) -> float:
    """ln of the Yau-Zaslow growth model e^(4 pi sqrt(d)) / (sqrt(2) d^(27/4))."""
    return 4 * math.pi * math.sqrt(d) - 0.5 * math.log(2) - 6.75 * math.log(d)


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise Wrong(message)


def _check_exit(answer: tuple[int, str]) -> list[str]:
    code, out = answer
    _expect(code == 0, f"exit code {code}")
    return out.splitlines()


def _check_table_rows(lines: list[str], d_values: range, refs: References) -> None:
    _expect(lines[:1] == [",".join(TABLE_FIELDS)], f"bad table header {lines[:1]}")
    _expect(len(lines) == len(d_values) + 1, f"{len(lines) - 1} table rows, expected {len(d_values)}")
    for line, d in zip(lines[1:], d_values):
        n = str(refs.nd(d))
        want = [str(d), n, n, "-" + n, n, n, n, "true"]
        _expect(line.split(",") == want, f"table row {line!r}, expected {','.join(want)!r}")


def _check_yz_csv(lines: list[str], max_n: int, refs: References) -> None:
    _expect(lines[:1] == ["n,a"], f"bad yz header {lines[:1]}")
    _expect(len(lines) == max_n + 2, f"{len(lines) - 1} yz rows, expected {max_n + 1}")
    for n, line in enumerate(lines[1:]):
        index, value = line.split(",")
        _expect(index == str(n), f"yz row {n} is labelled {index}")
        refs.yz(n, int(value))


def _check_crossover_csv(lines: list[str], max_d: int, refs: References) -> None:
    _expect(lines[:1] == ["d,n_d,yz_d,flex_larger"], f"bad crossover header {lines[:1]}")
    rows, notes = lines[1 : max_d + 1], lines[max_d + 1 :]
    _expect(len(rows) == max_d and len(notes) == 3, f"{len(lines)} crossover lines, expected {max_d + 4}")
    first = None
    for d, line in enumerate(rows, start=1):
        cells = line.split(",")
        n_d, yz_d = refs.nd(d), int(cells[2])
        refs.yz(d + 1, yz_d)
        larger = n_d > yz_d
        if larger and first is None:
            first = d
        want = [str(d), str(n_d), cells[2], "true" if larger else "false"]
        _expect(cells == want, f"crossover row {line!r}, expected {','.join(want)!r}")
    model = next((d for d in range(1, max_d + 1) if _flex_model(d) > _yz_model(d)), None)
    if first is None:
        verdict = "no crossover in range"
    else:
        verdict = f"exact comparison gives d={first} ({'matches' if 8 <= first <= 9 else 'disagrees'})"
    want_notes = [
        f"# first flex-dominant d (exact coefficients): {first or f'none up to d={max_d}'}",
        f"# first flex-dominant d (growth models): {model or f'none up to d={max_d}'}",
        f"# claimed switch window: between d=8 and d=9; {verdict}",
    ]
    _expect(notes == want_notes, f"crossover notes {notes!r}, expected {want_notes!r}")


def _parse_asym_line(line: str, kind: str, d: int) -> tuple[float, float, float]:
    fields = line.split()
    _expect(fields[:2] == [kind, f"d={d}"] and len(fields) == 5, f"bad asym line {line!r}")
    values = [field.split("=", 1) for field in fields[2:]]
    _expect([k for k, _ in values] == ["log_exact", "log_model", "log_ratio"], f"bad asym line {line!r}")
    return tuple(float(v) for _, v in values)


def check(item: tuple[str, int], answer, refs: References) -> None:
    """Raise Wrong unless answer is the right answer to item."""
    kind, n = item
    if kind == "row":
        _check_table_rows(_check_exit(answer), range(n, n + 1), refs)
    elif kind == "table":
        _check_table_rows(_check_exit(answer), range(1, n + 1), refs)
    elif kind == "yz":
        _check_yz_csv(_check_exit(answer), n, refs)
    elif kind == "yz_text":
        lines = _check_exit(answer)
        _expect(len(lines) == n + 1, f"{len(lines)} yz lines, expected {n + 1}")
        for index, line in enumerate(lines):
            refs.yz(index, int(line))
    elif kind == "crossover":
        _check_crossover_csv(_check_exit(answer), n, refs)
    elif kind == "oracle":
        coeffs = list(answer)
        _expect(len(coeffs) == n + 1, f"oracle returned {len(coeffs)} coefficients, expected {n + 1}")
        for index, value in enumerate(coeffs):
            refs.yz(index, value)
    elif kind in ("nd_closed", "nd_factorial", "nd_chern_monomial"):
        _expect(type(answer) is int and answer == refs.nd(n), f"{kind}({n}) = {answer!r}")
    elif kind == "nd_double_sum":
        _expect(tuple(answer) == (-refs.nd(n), refs.nd(n)), f"nd_double_sum({n}) = {answer!r}")
    elif kind == "yz_multiple":
        _expect(type(answer) is int, f"yz_multiple({n}) = {answer!r}")
        refs.yz(n + 1, answer)
    elif kind in ("asym_yz", "asym_flex"):
        _expect(answer.d == n, f"{kind}({n}) reports d={answer.d}")
        refs.asym(kind[5:], n, answer.log_exact, answer.log_model, answer.log_ratio)
    elif kind in ("cli_nd_closed", "cli_nd_factorial", "cli_nd_chern_monomial"):
        _expect(_check_exit(answer) == [str(refs.nd(n))], f"{kind} -d {n}: {answer[1]!r}")
    elif kind == "cli_nd_double_sum":
        want = [f"n_sum_raw {-refs.nd(n)}", f"n_sum_resolved {refs.nd(n)}"]
        _expect(_check_exit(answer) == want, f"nd -d {n} --method sum: {answer[1]!r}")
    elif kind in ("cli_asym_yz", "cli_asym_flex"):
        lines = _check_exit(answer)
        _expect(len(lines) == 1, f"{kind} -d {n}: {answer[1]!r}")
        refs.asym(kind[9:], n, *_parse_asym_line(lines[0], kind[9:], n))
    else:
        raise ValueError(f"no check for item kind {kind!r}")


def corrupt(answer):
    """A wrong copy of an answer, for the verifier's self-test."""
    if isinstance(answer, int):
        return answer + 1
    if isinstance(answer, tuple) and len(answer) == 2 and isinstance(answer[1], str):
        code, out = answer
        i = max(i for i, ch in enumerate(out) if ch.isdigit())
        return code, out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1 :]
    if isinstance(answer, tuple):
        return answer[:-1] + (answer[-1] + 1,)
    if dataclasses.is_dataclass(answer) and hasattr(answer, "log_exact"):
        return dataclasses.replace(answer, log_exact=answer.log_exact + 1.0)
    coeffs = list(answer)
    return coeffs[:-1] + [coeffs[-1] + 1]
