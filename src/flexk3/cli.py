"""Command line front end for the flex-divisor computations.

COMMANDS lists the subcommands (nd, table, yz, crossover, asym, selftest)
with each one's help line, handler and options, --format {text|csv|json}
among them.  parse_args reads the argv callers write, `--name value`
pairs with each name in full, straight from it; any other argv (help,
prefixes, `--name=value`, `-dN`, usage errors) goes to an argparse parser
built from it on first need, so argparse is never imported for the
common shape.  Exit codes are fixed: 0 success or agreement, 1
cross-check disagreement or internal failure, 2 usage error.  The
top-level --debug flag, given before the subcommand, re-raises an
internal failure, a failing selftest check included, with its traceback
instead of printing it as one error or FAIL line with exit code 1.  A
reader closing stdout early (as `| head` does) ends the command with exit
code 1 and no message.  selftest runs the registry SELFTEST_CHECKS, whose
docstrings state each criterion; in csv and json it prints one row per
check (name, status, seconds, detail).  The acceptance suite runs the same
registry.  Rows are tuples, the package's namedtuple records or plain
tuples, rendered against a header that for a record is its _fields.
Integers print in full decimal, in json as decimal strings; only the
json output imports json.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections.abc import Callable, Iterable
from math import comb
from types import SimpleNamespace

from . import flexdeg, qseries
from .schubert import _sigma1_column, _sigma1_step, monomial_integral

# The often-quoted window for the first flex-dominant d, as an inclusive range;
# the paper's abstract states no crossover.
CLAIMED_SWITCH = (8, 9)
CLAIMED_WINDOW = "between d={} and d={}".format(*CLAIMED_SWITCH)


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


@functools.lru_cache(maxsize=16)  # the CLI prints ten headers
def _csv_header(header: tuple[str, ...]) -> str:
    return ",".join(map(_csv_field, header)) + "\n"


def _print_csv(header: tuple[str, ...], rows: Iterable[tuple]) -> None:
    sys.stdout.write(_csv_header(header))  # an int cell is never quoted; a bool is no int
    sys.stdout.writelines(
        ",".join([str(v) if type(v) is int else _csv_field(v) for v in row]) + "\n" for row in rows)


def _write_json_rows(header: tuple[str, ...], rows: Iterable[tuple], pad: str = "") -> None:
    """json.dumps of one object per row keyed by header (booleans kept, all else strings),
    indent=2, pad before each line but the first, no closing newline; a row at a time."""
    import json
    keys = [f"{pad}    {json.dumps(name)}: " for name in header]
    first = opening = f"[\n{pad}  {{\n"
    for row in rows:
        values = (json.dumps(v if isinstance(v, bool) else str(v)) for v in row)
        sys.stdout.write(opening + ",\n".join(map(str.__add__, keys, values)))
        opening = f"\n{pad}  }},\n{pad}  {{\n"
    sys.stdout.write("[]" if opening is first else f"\n{pad}  }}\n{pad}]")


def _render_rows(header: tuple[str, ...], rows: Iterable[tuple], fmt: str) -> None:
    if fmt == "text":
        _print_text_table(header, rows)
    elif fmt == "csv":
        _print_csv(header, rows)
    else:
        _write_json_rows(header, rows)
        sys.stdout.write("\n")


def cmd_nd(args: SimpleNamespace) -> int:
    if args.method == "all":
        report = flexdeg.flex_report(args.d)
        _render_rows(report._fields, [report], args.format)
        return 0 if report.agree else 1
    fields, name = flexdeg.ROUTES[args.method]
    values = getattr(flexdeg, name)(args.d)
    values = values if len(fields) > 1 else (values,)
    if args.format != "text":
        _render_rows(("d", *fields), [(args.d, *values)], args.format)
    elif len(fields) == 1:
        print(*values)
    else:
        print(*map("{} {}".format, fields, values), sep="\n")
    return 0


def cmd_table(args: SimpleNamespace) -> int:
    if args.d_from > args.d_to:
        _parser().error(f"--from {args.d_from} exceeds --to {args.d_to}")
    reports = flexdeg.cross_check(args.d_from, args.d_to)
    _render_rows(flexdeg.FlexReport._fields, reports, args.format)
    return 0 if all(r.agree for r in reports) else 1


def cmd_yz(args: SimpleNamespace) -> int:
    values = qseries.euler_power_neg24(max(1, args.max_n))[: args.max_n + 1]
    if args.format == "text":
        sys.stdout.writelines(map("{}\n".format, values))
    else:
        _render_rows(("n", "a"), enumerate(values), args.format)
    return 0


def cmd_crossover(args: SimpleNamespace) -> int:
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
    if args.format == "json":  # json.dumps of these four keys, indent=2, a row at a time
        import json
        sys.stdout.write('{\n  "rows": ')
        _write_json_rows(header, report.rows, "  ")
        tail = {
            "first_flex_dominant": None if exact is None else str(exact),
            "model_first_flex_dominant": None if model is None else str(model),
            "claimed_window": CLAIMED_WINDOW,
        }
        sys.stdout.write(",\n" + json.dumps(tail, indent=2)[2:] + "\n")
        return 0
    _render_rows(header, report.rows, args.format)
    prefix = "# " if args.format == "csv" else ""
    for basis, first in (("exact coefficients", exact), ("growth models", model)):
        found = f"none up to d={args.max_d}" if first is None else first
        print(f"{prefix}first flex-dominant d ({basis}): {found}")
    print(f"{prefix}{note}")
    return 0


def cmd_asym(args: SimpleNamespace) -> int:
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


def _check_five_way() -> None:
    """The five routes give the same n_d, and the printed double sum -n_d, for d <= 120."""
    for report in flexdeg.cross_check(1, 120):
        if not report.agree or report.n_sum_raw != -report.n_sum_resolved:
            raise AssertionError(f"methods disagree or raw != -n_d at d={report.d}: {report}")


def _check_pieri_integral() -> None:
    """Pieri walks match the ballot numbers and the closed-form integrals for d <= 12."""
    # sigma1^k has the ballot number C(k, b) - C(k, b-1) on s_(k-b, b); a box
    # d only reads the coefficients with k - b <= d, so one walk serves every d
    x = [1]
    for k in range(1, 25):
        x = _sigma1_step(x, k - 1)
        want = [comb(k, b) - comb(k, b - 1) if b else 1 for b in range(k // 2 + 1)]
        if x != want:
            raise AssertionError(f"sigma1^{k} is {x}, expected {want}")
    walked = _sigma1_column(12)  # route 5's integrals of sigma1^(2j) sigma2^(d-j)
    for d in range(1, 13):
        for n in range(d + 1):
            m = 2 * d - 2 * n
            want = monomial_integral(m, n, d)
            if walked[d - n] != want:
                raise AssertionError(f"d={d} m={m} n={n}: pieri {walked[d - n]} != formula {want}")


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


def cmd_selftest(args: SimpleNamespace) -> int:
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


# An option is (flag, dest, rule, default, help): a tuple rule holds the choices and an
# int rule is the least integer allowed; default None makes the option required.
_SUMMARY = "Exact flex-divisor multiples of polarized K3 surfaces, cross-checked five ways."
_FORMAT = ("--format", "format", ("text", "csv", "json"), "text", "output format")
_D = ("-d", "d", 1, None, "half-degree d >= 1")
_METHOD = ("--method", "method", (*flexdeg.ROUTES, "all"), "all",
           "route to run; all runs the five and cross-checks them")
# Subcommand -> (help line, handler, options after -h and --format).
COMMANDS: dict[str, tuple[str, Callable[[SimpleNamespace], int], tuple]] = {
    "nd": ("single flex multiple n_d", cmd_nd, (_D, _METHOD)),
    "table": ("n_d table over a range of d", cmd_table, (
        ("--from", "d_from", 1, None, "first d"),
        ("--to", "d_to", 1, None, "last d, at least the first"))),
    "yz": ("coefficients of prod (1-q^n)^(-24)", cmd_yz, (
        ("--max-n", "max_n", 0, None, "last power of q"),)),
    "crossover": ("flex vs Yau-Zaslow comparison", cmd_crossover, (
        ("--max-d", "max_d", 1, None, "last d compared"),)),
    "asym": ("growth-model diagnostics", cmd_asym, (
        _D, ("--kind", "kind", ("flex", "yz", "both"), "both", "numbers whose growth to model"))),
    "selftest": ("run the built-in cross-checks", cmd_selftest, ()),
}


@functools.cache
def _parser():
    """The argparse parser for COMMANDS, built on first use."""
    import argparse

    def at_least(low: int, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            need = "must be a positive integer" if low else "must be nonnegative"
            raise argparse.ArgumentTypeError(f"{need}, got {value}")
        return value

    layout = functools.partial(argparse.HelpFormatter, max_help_position=60, width=200)
    parser = argparse.ArgumentParser(prog="flexk3", description=_SUMMARY, formatter_class=layout)
    parser.add_argument("--debug", action="store_true",
                        help="re-raise internal failures with their traceback instead of exiting 1")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (summary, func, own) in COMMANDS.items():
        sub = subparsers.add_parser(command, help=summary, description=summary, formatter_class=layout)
        for flag, dest, rule, default, text in (_FORMAT, *own):
            tag = "required" if default is None else f"default: {default}"
            check = ({"choices": rule} if isinstance(rule, tuple)
                     else {"type": functools.partial(at_least, rule)})
            sub.add_argument(flag, dest=dest, required=default is None, default=default,
                             help=f"{text} ({tag})", **check)
        sub.set_defaults(func=func)
    return parser


def _read(argv: list[str]) -> dict | None:
    """argv as `[--debug] <command>` then `--flag value` pairs, read by COMMANDS: each flag
    one of the command's, spelled in full, each value valid and not starting with "-", and
    every required option given.  None for any other argv."""
    debug = argv[:1] == ["--debug"]
    command, *words = argv[debug:] or [""]
    if command not in COMMANDS or len(words) % 2:
        return None
    _, func, own = COMMANDS[command]
    options = {option[0]: option for option in (_FORMAT, *own)}
    args = {"debug": debug, "command": command, "func": func}
    args.update({dest: default for _, dest, _, default, _ in options.values()})
    for flag, value in zip(words[::2], words[1::2]):
        if flag not in options or value[:1] == "-":
            return None
        _, dest, rule, _, _ = options[flag]
        if isinstance(rule, tuple):
            if value not in rule:
                return None
        else:
            try:
                value = int(value)
            except ValueError:
                return None
            if value < rule:
                return None
        args[dest] = value
    return None if None in args.values() else args


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read as `[--debug] <command>` and the command's options, by COMMANDS.

    The shape callers write, `--flag value` pairs with each flag in full, is read
    here; every other argv goes to argparse, imported on first need, which gives
    the same namespace for that shape.  -h or --help prints a help page and exits
    0; a usage error prints the usage line and the error, and exits 2.
    """
    args = _read(argv)
    return SimpleNamespace(**(vars(_parser().parse_args(argv)) if args is None else args))


def main(argv: list[str] | None = None) -> int:
    # CPython 3.10.7+ refuses to print an int of over 4300 digits (n_d at d = 3578):
    # lift that limit while main runs, and give the caller's back on every way out.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
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
