"""Command line front end for the flex-divisor computations.

COMMANDS lists the subcommands (nd, table, yz, crossover, asym, selftest)
with each one's help line, handler and options, --format {text|csv|json}
among them.  parse_args reads argv by it in one pass: `--name value`,
`--name=value`, a unique prefix of a long name, `-d N` or `-dN`, the last
one given winning.  The help pages and the usage line before a usage
error are written from it too.  Exit codes are fixed: 0 success or
agreement, 1 cross-check disagreement or internal failure, 2 usage error.
The top-level --debug flag, given before the subcommand, re-raises an
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

# The paper's claimed first flex-dominant d, as an inclusive range.
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
    if type(value) is int:  # never quoted; a bool is not one, _cell spells it true or false
        return str(value)
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
        import json
        keys, opening = [f"    {json.dumps(name)}: " for name in header], "[\n  {\n"
        for row in rows:
            values = (json.dumps(v if isinstance(v, bool) else str(v)) for v in row)
            sys.stdout.write(opening + ",\n".join(map(str.__add__, keys, values)))
            opening = "\n  },\n  {\n"
        sys.stdout.write("[]\n" if opening == "[\n  {\n" else "\n  }\n]\n")


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
        _fail("flexk3", _TOP, f"--from {args.d_from} exceeds --to {args.d_to}")
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
    if args.format == "json":
        import json
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
        walked = _sigma1_column(d)  # route 5's integrals of sigma1^(2j) sigma2^(d-j)
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


# An option is (flag, dest, rule, default, help): rule None takes no value, a tuple
# holds the choices and an int is the least integer allowed; default None makes the
# option required.  "-h/--help" is one option under two names.
_HELP = ("-h/--help", "help", None, False, "show this help message and exit")
_TOP = (_HELP, ("--debug", "debug", None, False,
                "re-raise internal failures with their traceback instead of exiting 1"))
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


def _spelled(flag: str, dest: str, rule: object) -> str:
    if rule is None:
        return flag
    return f"{flag} {{{','.join(rule)}}}" if isinstance(rule, tuple) else f"{flag} {dest.upper()}"


def _usage(prog: str, options: tuple) -> str:
    words = [_spelled(flag.split("/")[0], dest, rule) for flag, dest, rule, _, _ in options]
    words = [word if option[3] is None else f"[{word}]" for word, option in zip(words, options)]
    tail = [f"{{{','.join(COMMANDS)}}} ..."] if options is _TOP else []
    return " ".join(["usage:", prog, *words, *tail])


def _fail(prog: str, options: tuple, message: str) -> NoReturn:
    sys.stderr.write(f"{_usage(prog, options)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help(prog: str, summary: str, options: tuple) -> NoReturn:
    rows = [(name, entry[0]) for name, entry in COMMANDS.items()] if options is _TOP else []
    for flag, dest, rule, default, text in options:
        tag = " (required)" if default is None else "" if rule is None else f" (default: {default})"
        rows.append((_spelled(flag.replace("/", ", "), dest, rule), text + tag))
    width = max(len(left) for left, _ in rows)
    print(_usage(prog, options), "", summary, "", sep="\n")
    print(*(f"  {left.ljust(width)}  {right}" for left, right in rows), sep="\n")
    raise SystemExit(0)


def _classify(arg: str, flags: dict, fail: Callable[[str], NoReturn]) -> tuple | None:
    """How one argument reads: None for a positional, ("", None) for an unknown
    option, else (flag, the value given in the same argument or None)."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    if arg in flags or eq and name in flags:
        return (arg, None) if arg in flags else (name, value)
    if arg[1] == "-":  # a prefix of long flags, perhaps with =value
        hits, value = [flag for flag in flags if flag.startswith(name)], value if eq else None
    else:  # -dN
        hits, value = [flag for flag in flags if flag == arg[:2]], arg[2:]
    if len(hits) > 1:
        fail(f"ambiguous option: {arg} could match {', '.join(hits)}")
    if hits:
        return hits[0], value
    # argparse's negative number ^-\d+$|^-\d*\.\d+$ (\d is isdecimal, $ passes one "\n")
    head, dot, tail = arg[1:].removesuffix("\n").partition(".")
    return None if (head + tail).isdecimal() and (tail or not dot) or " " in arg else ("", None)


def _read(prog: str, summary: str, options: tuple, argv: list, args: dict, extras: list) -> list:
    """Read argv's options into args, putting the arguments no option takes on
    extras, and check the required ones.  The top level stops at its first
    positional, the subcommand, and returns it with the arguments after it."""
    fail = functools.partial(_fail, prog, options)
    flags = {name: option for option in options for name in option[0].split("/")}
    # Every argument is sorted into option or positional before any is read, so an
    # ambiguous prefix fails ahead of any other error; the top level stops early.
    kinds = (_classify(arg, flags, fail) for arg in argv)
    words = zip(argv, kinds if options is _TOP else list(kinds))
    for i, (arg, kind) in enumerate(words):
        if kind is None and options is _TOP:  # no top-level option takes a value
            return argv[i:]
        if not kind or not kind[0]:
            extras.append(arg)
            continue
        (flag, dest, rule, _, _), value = flags[kind[0]], kind[1]
        if rule is None:
            if value is not None:
                fail(f"argument {flag}: ignored explicit argument {value!r}")
            if flag == _HELP[0]:
                _help(prog, summary, options)
            value = True
        elif value is None:
            value, kind = next(words, (None, ""))
            if kind is not None:
                fail(f"argument {flag}: expected one argument")
        if isinstance(rule, tuple) and value not in rule:
            choices = ", ".join(map(repr, rule))
            fail(f"argument {flag}: invalid choice: {value!r} (choose from {choices})")
        if isinstance(rule, int):
            try:
                value = int(value)
            except ValueError:
                fail(f"argument {flag}: not an integer: {value!r}")
            if value < rule:
                need = "must be a positive integer" if rule else "must be nonnegative"
                fail(f"argument {flag}: {need}, got {value}")
        args[dest] = value
    missing = [option[0] for option in options if option[3] is None and args[option[1]] is None]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    return []


def parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read by COMMANDS: -h and --debug, then a subcommand and its options.
    A usage error prints the usage line and the error, and exits 2."""
    args, extras = {"debug": False}, []
    summary = "Exact flex-divisor multiples of polarized K3 surfaces, cross-checked five ways."
    rest = _read("flexk3", summary, _TOP, argv, args, extras)
    if not rest:
        _fail("flexk3", _TOP, "the following arguments are required: command")
    if rest[0] not in COMMANDS:
        message = f"invalid choice: {rest[0]!r} (choose from {', '.join(map(repr, COMMANDS))})"
        _fail("flexk3", _TOP, f"argument command: {message}")
    summary, func, own = COMMANDS[rest[0]]
    options = (_HELP, _FORMAT, *own)
    args.update({option[1]: option[3] for option in options[1:]}, command=rest[0], func=func)
    _read(f"flexk3 {rest[0]}", summary, options, rest[1:], args, extras)
    if extras:
        _fail("flexk3", _TOP, "unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(**args)


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
