"""The CLI's parser against the argparse parser it once used, and its help pages.

tests/cli_reference.py keeps that argparse parser.  Hypothesis writes argv over
every subcommand, option and option form, good and bad values, missing and
repeated options, `--` and `--=value`, and --debug on either side of the
subcommand.  Where argparse accepts the argv, both parsers must give equal
namespaces; where it refuses it, both must exit 2.  The last stderr line must
then equal argparse's where test_cli_golden pins that kind of message, and
otherwise agree through `prog: error: argument <flag>:` (or through the
error's first clause when it names no argument), since argparse's wording
varies across Python versions.

Left out of the generator: `-h`, `--help` and its prefixes, whose page is
the CLI's own.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import cli_reference
from flexk3 import cli
from test_cli_golden import USAGE_ERRORS


def _kind(line: str) -> str:
    """'flexk3 nd: error: argument -d: must be ..., got 0' -> 'must be ...'."""
    fields = line.split(": ")
    return fields[3].split(",")[0] if fields[2].startswith("argument ") else fields[2]


PINNED = {_kind(line) for _, line in USAGE_ERRORS}

POSITIVE = st.integers(1, 40).map(str)
BAD_INTEGER = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(["-0", "+2", " 7", "1_0", "x", "", "1.5", "-1.5", "-", "- 5", "٣", "-x"]),
)
# flag -> (good values, bad values)
VALUES = {
    "-d": (POSITIVE, BAD_INTEGER),
    "--from": (POSITIVE, BAD_INTEGER),
    "--to": (POSITIVE, BAD_INTEGER),
    "--max-n": (st.integers(0, 40).map(str), BAD_INTEGER),
    "--max-d": (POSITIVE, BAD_INTEGER),
    "--format": (st.sampled_from(["text", "csv", "json"]), st.sampled_from(["xml", "", "-x"])),
    "--method": (
        st.sampled_from(["closed", "factorial", "sum", "monomial", "schubert", "all"]),
        st.sampled_from(["al", "bogus", ""]),
    ),
    "--kind": (st.sampled_from(["flex", "yz", "both"]), st.sampled_from(["none", "Flex"])),
}
# subcommand -> (its required flags, its other flags besides --format)
FLAGS = {
    "nd": (["-d"], ["--method"]),
    "table": (["--from", "--to"], []),
    "yz": (["--max-n"], []),
    "crossover": (["--max-d"], []),
    "asym": (["-d"], ["--kind"]),
    "selftest": ([], []),
}
# words after the subcommand that no option of it takes, --debug and -- among them
JUNK = st.sampled_from(
    ["extra", "--bogus", "-x", "-5", "--debug", "--deb", "--debug=1", "a b", "--", "--=csv"])


@st.composite
def option(draw, flags: list[str]) -> list[str]:
    """One option in one of its forms: `--name value`, `--name=value`, a prefix
    of the long name, `-dN`, or the name with its value missing.  Good values
    are drawn four times as often as bad ones."""
    flag = draw(st.sampled_from(flags))
    good, bad = VALUES[flag]
    value = draw(st.one_of(good, good, good, good, bad))
    name = flag[: draw(st.integers(3, len(flag)))] if flag.startswith("--") else flag
    form = draw(st.sampled_from(["separate"] * 3 + ["equals", "attached", "missing"]))
    if form == "equals":
        return [f"{name}={value}"]
    if form == "attached" and not flag.startswith("--"):
        return [flag + value]
    return [name] if form == "missing" else [name, value]


@st.composite
def argv(draw) -> list[str]:
    """Top-level words, a subcommand (or none, or a bad one) and its options: each
    required one present with odds 4:1, then up to three more options or words."""
    top_words = st.sampled_from(["--debug", "--deb", "--debug=x", "--bogus", "-x"])
    top = draw(st.one_of(st.just([]), st.just(["--debug"]), st.lists(top_words, max_size=2)))
    command = draw(st.sampled_from([*FLAGS] * 4 + ["bogus", "", None]))
    if command is None:
        return top
    required, other = FLAGS.get(command, ([], []))
    own = ["--format", *required, *other]
    more = st.one_of(option(own), option(own), option(list(VALUES)), JUNK.map(lambda word: [word]))
    tokens = [draw(option([flag])) for flag in required if draw(st.integers(0, 4))]
    tokens += draw(st.lists(more, max_size=3))
    tokens = draw(st.permutations(tokens))
    return [*top, command, *(word for token in tokens for word in token)]


def outcome(parse, args: list[str]) -> tuple[dict | int, str]:
    """(the namespace as a dict, "") for accepted argv, else (exit code, last stderr line)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            return vars(parse(args)), ""
        except SystemExit as exc:
            return exc.code, err.getvalue().splitlines()[-1]


@settings(max_examples=600, deadline=None)
@given(argv())
@example(["nd", "-d", "0"])
@example(["yz", "--max-n", "-1"])
@example(["nd", "-d3", "--meth=sum", "--method", "closed", "--format=csv"])
@example(["--debug", "asym", "-d=12", "--kind", "yz", "-d", "5"])
@example(["nd", "-d", "3", "--debug"])
@example(["table", "--f", "3", "--to", "4"])
@example(["table", "--to", "4"])
@example(["--deb", "crossover", "--max-d", "-0"])
@example(["nd", "--", "-d", "3"])
@example(["nd", "-d", "3", "--"])
@example(["table", "--=csv", "--from", "1", "--to", "2"])
@example(["table", "--from", "1", "--to", "2", "--=csv"])
def test_parse_matches_argparse(args):
    ours = outcome(cli.parse_args, args)
    theirs = outcome(cli_reference.build_parser().parse_args, args)
    if isinstance(theirs[0], dict):
        assert ours == theirs
        return
    assert ours[0] == theirs[0] == 2
    if _kind(theirs[1]) in PINNED:
        assert ours[1] == theirs[1]
    else:
        assert ours[1].split(": ")[:3] == theirs[1].split(": ")[:3]


def run_help(capsys, args: list[str]) -> str:
    with pytest.raises(SystemExit) as exc:
        cli.main(args)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.err == ""
    return captured.out


@pytest.mark.parametrize("args", [["-h"], ["--help"], ["--debug", "--he"]])
def test_help_lists_every_subcommand(capsys, args):
    lines = run_help(capsys, args).splitlines()
    for name, (summary, _, _) in cli.COMMANDS.items():
        assert any(line.split() == [name, *summary.split()] for line in lines), name
    assert any(line.split()[:1] == ["--debug"] for line in lines)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_help_lists_every_option(capsys, name):
    out = run_help(capsys, [name, "-h"])
    summary, _, options = cli.COMMANDS[name]
    assert summary in out.splitlines()
    for flag, _, rule, default, text in (cli._FORMAT, *options):
        [line] = [line for line in out.splitlines() if line.split()[:1] == [flag]]
        assert text in line
        if isinstance(rule, tuple):
            assert "{" + ",".join(rule) + "}" in line
        assert ("(required)" if default is None else f"(default: {default})") in line


# One valid argv per subcommand, in the shape the CLI reads without argparse.
VALID = {
    "nd": ["nd", "-d", "3"],
    "table": ["table", "--from", "2", "--to", "3", "--format", "csv"],
    "yz": ["yz", "--max-n", "5"],
    "crossover": ["crossover", "--max-d", "4"],
    "asym": ["asym", "-d", "2", "--kind", "yz"],
    "selftest": ["selftest", "--format", "json"],
}


def test_parser_built_once():
    """argparse's parser is built on the first argv the reader declines and reused after;
    the argv callers write never builds it."""
    cli._parser.cache_clear()
    for argv in VALID.values():
        cli.parse_args(list(argv))
    assert cli._parser.cache_info().misses == 0
    for argv in VALID.values():
        for _ in range(10):
            assert cli.parse_args([*argv, "--format=csv"]).format == "csv"
    info = cli._parser.cache_info()
    assert (info.misses, info.hits) == (1, 10 * len(VALID) - 1)


def test_parses_return_independent_namespaces():
    first, second = cli.parse_args(VALID["table"]), cli.parse_args(VALID["table"])
    assert first == second and first is not second
    first.d_from, first.format = 99, "json"
    assert (second.d_from, second.format) == (2, "csv")
    assert cli.parse_args(VALID["table"]) == second
    spelled = ["table", "--fr", "2", "--to=3", "--format", "csv"]  # read by argparse
    first = cli.parse_args(spelled)
    first.d_from, first.format = 99, "json"
    assert cli.parse_args(spelled) == second


@settings(max_examples=300, deadline=None)
@given(argv().filter(lambda words: "selftest" not in words))
@example(["table", "--from", "9", "--to", "3", "--format", "json"])
@example(["--debug", "crossover", "--max-d", "40", "--format", "csv"])
def test_main_exits_cleanly(args):
    """cli.main over generated argv, every subcommand but selftest and every format, all
    integers at most 40: exit 0 with nothing on stderr, or exit 2 with a usage error line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert err.getvalue() == ""
    else:
        last = err.getvalue().splitlines()[-1]
        assert last.startswith("flexk3") and ": error: " in last, last
