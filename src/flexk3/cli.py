"""Command line front end for the flex-divisor computations.

Subcommands: nd, table, yz, crossover, asym, selftest, each accepting
--format {text|csv|json}.  Exit codes are fixed: 0 success or agreement,
1 cross-check disagreement or internal failure, 2 usage error.  The
top-level --debug flag re-raises an internal failure, a failing selftest
check included, with its traceback instead of printing it as one error
or FAIL line with exit code 1.  A reader closing stdout early (as
`| head` does) ends the command with exit code 1 and no message.
selftest runs the registry SELFTEST_CHECKS, whose docstrings state each
criterion; in csv and json it prints one row per check (name, status,
seconds, detail).  The acceptance suite runs the same registry.  Rows are
tuples, the package's NamedTuple records or plain tuples, rendered
against a header that for a record is its _fields.  CSV quotes a cell,
doubling its '"', only when it holds ',', '"', '\n' or '\r'.  All
integers are printed in full decimal; json renders them as decimal
strings so consumers never lose precision, and main lifts CPython's
limit on the digits of an int printed as a string while it runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from math import comb
from typing import Callable, Iterable

from . import flexdeg, qseries
from .flexdeg import FlexReport
from .schubert import _sigma1_step, monomial_integral

# The paper's claimed first flex-dominant d, as an inclusive range.
CLAIMED_SWITCH = (8, 9)
CLAIMED_WINDOW = "between d={} and d={}".format(*CLAIMED_SWITCH)


def _int_at_least(low: int, rule: str) -> Callable[[str], int]:
    """An argparse type for integers >= low; a smaller one fails with "<rule>, got <value>"."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"{rule}, got {value}")
        return value

    return parse


def _cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _print_text_table(header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    cells = [list(map(_cell, row)) for row in rows]
    widths = [max(map(len, column)) for column in zip(header, *cells)]
    print("  ".join(name.ljust(width) for name, width in zip(header, widths)).rstrip())
    for line in cells:
        print("  ".join(cell.rjust(width) for cell, width in zip(line, widths)))


def _csv_field(value: object) -> str:
    """_cell(value), quoted by RFC 4180 as csv.writer does, except that
    3.10-3.12's csv.writer leaves a lone '\\r' unquoted (no CLI cell holds one)."""
    text = _cell(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _print_csv(header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    sys.stdout.write(",".join(map(_csv_field, header)) + "\n")
    sys.stdout.writelines(",".join(map(_csv_field, row)) + "\n" for row in rows)


def _json_table_value(header: tuple[str, ...], rows: Iterable[tuple]) -> list[dict[str, object]]:
    """One object per row, keyed by header; booleans stay JSON booleans and
    every other value becomes a string."""
    return [
        {name: value if isinstance(value, bool) else str(value) for name, value in zip(header, row)}
        for row in rows
    ]


def _render_rows(header: tuple[str, ...], rows: Iterable[tuple], fmt: str) -> None:
    if fmt == "text":
        _print_text_table(header, rows)
    elif fmt == "csv":
        _print_csv(header, rows)
    else:  # json.dumps(_json_table_value(header, rows), indent=2), written a row at a time
        keys, opening = [f"    {json.dumps(name)}: " for name in header], "[\n  {\n"
        for row in rows:
            values = (json.dumps(v if isinstance(v, bool) else str(v)) for v in row)
            sys.stdout.write(opening + ",\n".join(map(str.__add__, keys, values)))
            opening = "\n  },\n  {\n"
        sys.stdout.write("[]\n" if opening == "[\n  {\n" else "\n  }\n]\n")


def cmd_nd(args: argparse.Namespace) -> int:
    if args.method == "all":
        report = flexdeg.flex_report(args.d)
        _render_rows(FlexReport._fields, [report], args.format)
        return 0 if report.agree else 1
    if args.method == "sum":
        fields, values = ("n_sum_raw", "n_sum_resolved"), flexdeg.nd_double_sum(args.d)
    else:
        field, func = {
            "closed": ("n_closed", flexdeg.nd_closed),
            "factorial": ("n_factorial", flexdeg.nd_factorial),
            "monomial": ("n_chern_monomial", flexdeg.nd_chern_monomial),
            "schubert": ("n_chern_schubert", flexdeg.nd_chern_schubert),
        }[args.method]
        fields, values = (field,), (func(args.d),)
    if args.format == "text":
        if len(values) == 1:
            print(values[0])
        else:
            for name, value in zip(fields, values):
                print(f"{name} {value}")
    else:
        _render_rows(("d", *fields), [(args.d, *values)], args.format)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.d_from > args.d_to:
        build_parser().error(f"--from {args.d_from} exceeds --to {args.d_to}")
    reports = flexdeg.cross_check(args.d_from, args.d_to)
    _render_rows(FlexReport._fields, reports, args.format)
    return 0 if all(r.agree for r in reports) else 1


def cmd_yz(args: argparse.Namespace) -> int:
    values = qseries.euler_power_neg24(max(1, args.max_n))[: args.max_n + 1]
    if args.format == "text":
        for value in values:
            print(value)
    else:
        _render_rows(("n", "a"), enumerate(values), args.format)
    return 0


def cmd_crossover(args: argparse.Namespace) -> int:
    report = qseries.crossover(args.max_d)
    header = qseries.CrossoverRow._fields
    exact = report.first_flex_dominant
    model = report.model_first_flex_dominant
    if exact is None:
        verdict = "no crossover in range"
    elif CLAIMED_SWITCH[0] <= exact <= CLAIMED_SWITCH[1]:
        verdict = f"exact comparison gives d={exact} (matches)"
    else:
        verdict = f"exact comparison gives d={exact} (disagrees)"
    note = f"claimed switch window: {CLAIMED_WINDOW}; {verdict}"
    if args.format == "json":
        obj = {
            "rows": _json_table_value(header, report.rows),
            "first_flex_dominant": None if exact is None else str(exact),
            "model_first_flex_dominant": None if model is None else str(model),
            "claimed_window": CLAIMED_WINDOW,
        }
        print(json.dumps(obj, indent=2))
        return 0
    _render_rows(header, report.rows, args.format)
    prefix = "# " if args.format == "csv" else ""
    for basis, first in (("exact coefficients", exact), ("growth models", model)):
        found = f"none up to d={args.max_d}" if first is None else first
        print(f"{prefix}first flex-dominant d ({basis}): {found}")
    print(f"{prefix}{note}")
    return 0


def cmd_asym(args: argparse.Namespace) -> int:
    compute = {"flex": qseries.asym_flex, "yz": qseries.asym_yz}
    kinds = tuple(compute) if args.kind == "both" else (args.kind,)
    header = ("kind", *qseries.AsymReport._fields)
    rows = []
    for kind in kinds:
        d, *logs = compute[kind](args.d)
        rows.append((kind, d, *(f"{value:.9f}" for value in logs)))
    if args.format == "text":
        for kind, *values in rows:
            print(kind, *map("{}={}".format, header[1:], values))
    else:
        _render_rows(header, rows, args.format)
    return 0


def _check_double_sum() -> None:
    """The printed double sum is -n_d and resolves to n_d for d <= 120."""
    for d in range(1, 121):
        raw, resolved = flexdeg.nd_double_sum(d)
        target = flexdeg.nd_closed(d)
        if raw != -target or resolved != target:
            raise AssertionError(f"d={d}: raw={raw} resolved={resolved}, want -{target}, {target}")


def _check_five_way() -> None:
    """The five routes give the same n_d for d <= 120."""
    for report in flexdeg.cross_check(1, 120):
        if not report.agree:
            raise AssertionError(f"methods disagree at d={report.d}: {report}")


def _check_pieri_integral() -> None:
    """Pieri walks match the ballot numbers and the closed-form integrals for d <= 12."""
    for d in range(1, 13):
        # sigma1^k has the ballot number C(k, b) - C(k, b-1) on s_(k-b, b),
        # and 0 where the first row k - b leaves the box.
        x = [1]
        for k in range(1, 2 * d + 1):
            x = _sigma1_step(x, k - 1, d)
            want = [
                (comb(k, b) - comb(k, b - 1) if b else 1) if k - b <= d else 0
                for b in range(k // 2 + 1)
            ]
            if x != want:
                raise AssertionError(f"d={d}: sigma1^{k} is {x}, expected {want}")
        for n in range(d + 1):
            m = 2 * d - 2 * n
            x = [0] * n + [1]  # sigma2^n = s_(n,n) in degree 2n
            for k in range(2 * n, 2 * d):
                x = _sigma1_step(x, k, d)
            got = x[d]
            want = monomial_integral(m, n, d)
            if got != want:
                raise AssertionError(f"d={d} m={m} n={n}: pieri {got} != formula {want}")


def _check_qseries_product() -> None:
    """The Jacobi-cube series equals the product oracle through q^400."""
    if qseries.euler_power_neg24(400) != qseries.euler_power_neg24_by_product(400):
        raise AssertionError("Jacobi-cube and product series differ through q^400")


def _check_examples() -> None:
    """The ramification square 18 and both quartic flex tallies 80 match n_1 and n_2."""
    # Degree 2: the flex curve is the ramification curve R of the double
    # cover, so R^2 = 18 must equal (n_1 L)^2 = 2 n_1^2.  Degree 4: the flex
    # curve has degree 4 n_2.  On the Fermat quartic it is 48 lines with
    # multiplicity 1 plus 4 plane quartic sections with multiplicity 2; on
    # the Schur quartic, 16 lines with multiplicity 2 plus 48 lines with
    # multiplicity 1.
    n1, n2 = flexdeg.nd_closed(1), flexdeg.nd_closed(2)
    for identity, from_nd, geometric in (
        ("ramification R^2", 2 * n1 * n1, 18),
        ("Fermat quartic flex degree", 4 * n2, 48 * 1 + 4 * (2 * 4)),
        ("Schur quartic flex degree", 4 * n2, 16 * 2 + 48 * 1),
    ):
        if from_nd != geometric:
            raise AssertionError(f"{identity}: {from_nd} != {geometric}")


SELFTEST_CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("double-sum", _check_double_sum),
    ("five-way", _check_five_way),
    ("pieri-integral", _check_pieri_integral),
    ("qseries-product", _check_qseries_product),
    ("example-checks", _check_examples),
]


def run_check(
    name: str, check: Callable[[], None], reraise: bool = False
) -> tuple[str, str, float, str]:
    """Run one check: (name, PASS or FAIL, seconds, its criterion or the failure message).

    With reraise, a failing check's exception propagates instead of becoming a FAIL row.
    """
    start = time.perf_counter()
    try:
        check()
    except Exception as exc:
        if reraise:
            raise
        status, detail = "FAIL", str(exc)
    else:
        status, detail = "PASS", check.__doc__ or ""
    return name, status, time.perf_counter() - start, detail


def cmd_selftest(args: argparse.Namespace) -> int:
    header = ("name", "status", "seconds", "detail")
    rows = []
    for name, check in SELFTEST_CHECKS:
        name, status, seconds, detail = run_check(name, check, args.debug)
        if args.format == "text":
            print(f"FAIL {name}: {detail}" if status == "FAIL" else f"PASS {name}")
        rows.append((name, status, f"{seconds:.3f}", detail))
    if args.format != "text":
        _render_rows(header, rows, args.format)
    return 0 if all(status == "PASS" for _, status, _, _ in rows) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by every later main() call."""
    parser = argparse.ArgumentParser(
        prog="flexk3",
        description="Exact flex-divisor multiples of polarized K3 surfaces, cross-checked five ways.",
    )
    parser.add_argument(
        "--debug",
        action="store_true",
        help="re-raise internal failures with their traceback instead of exiting 1",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "csv", "json"),
        default="text",
        help="output format (default: text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_at_least(1, "must be a positive integer")
    nonnegative = _int_at_least(0, "must be nonnegative")

    p_nd = sub.add_parser("nd", parents=[common], help="single flex multiple n_d")
    p_nd.add_argument("-d", type=positive, required=True, help="half-degree d >= 1")
    p_nd.add_argument(
        "--method",
        choices=("closed", "factorial", "sum", "monomial", "schubert", "all"),
        default="all",
        help="which computation to run (default: all, with cross-validation)",
    )
    p_nd.set_defaults(func=cmd_nd)

    p_table = sub.add_parser("table", parents=[common], help="n_d table over a range of d")
    p_table.add_argument("--from", dest="d_from", type=positive, required=True)
    p_table.add_argument("--to", dest="d_to", type=positive, required=True)
    p_table.set_defaults(func=cmd_table)

    p_yz = sub.add_parser("yz", parents=[common], help="coefficients of prod (1-q^n)^(-24)")
    p_yz.add_argument("--max-n", dest="max_n", type=nonnegative, required=True)
    p_yz.set_defaults(func=cmd_yz)

    p_cross = sub.add_parser("crossover", parents=[common], help="flex vs Yau-Zaslow comparison")
    p_cross.add_argument("--max-d", dest="max_d", type=positive, required=True)
    p_cross.set_defaults(func=cmd_crossover)

    p_asym = sub.add_parser("asym", parents=[common], help="growth-model diagnostics")
    p_asym.add_argument("-d", type=positive, required=True)
    p_asym.add_argument("--kind", choices=("flex", "yz", "both"), default="both")
    p_asym.set_defaults(func=cmd_asym)

    p_self = sub.add_parser("selftest", parents=[common], help="run the built-in cross-checks")
    p_self.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    # CPython 3.10.7+ refuses to print an int of over 4300 digits (n_d at d = 3578):
    # lift that limit while main runs, and give the caller's back on every way out.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except BrokenPipeError:
            # The reader closed stdout.  Point it at devnull, so the interpreter's
            # final flush of what is still buffered stays quiet, and exit 1.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
        except Exception as exc:
            if args.debug:
                raise
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
