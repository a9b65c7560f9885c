"""CLI behaviour: output formats, schemas, exit codes."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flexk3 import cli, flexdeg

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_nd_all_renders_full_report(capsys):
    code, out = run_cli(capsys, "nd", "-d", "2", "--method", "all")
    assert code == 0
    cells = out.splitlines()[1].split()
    assert cells == ["2", "20", "20", "-20", "20", "20", "20", "true"]


def test_nd_default_method_is_all(capsys):
    code, out = run_cli(capsys, "nd", "-d", "3")
    assert code == 0
    assert "n_chern_schubert" in out


def test_nd_single_method_prints_bare_value(capsys):
    code, out = run_cli(capsys, "nd", "-d", "8", "--method", "closed")
    assert code == 0
    assert out == "34763300\n"


def test_nd_sum_prints_raw_and_resolved(capsys):
    code, out = run_cli(capsys, "nd", "-d", "1", "--method", "sum")
    assert code == 0
    assert out == "n_sum_raw -3\nn_sum_resolved 3\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("method", flexdeg.ROUTES)
def test_nd_method_prints_its_route_columns(capsys, method, fmt):
    columns = flexdeg.ROUTES[method][0]
    report = flexdeg.flex_report(7)._asdict()
    want = {name: str(report[name]) for name in columns}
    code, out = run_cli(capsys, "nd", "-d", "7", "--method", method, "--format", fmt)
    assert code == 0
    if fmt == "json":
        assert json.loads(out) == [{"d": "7", **want}]
    elif fmt == "csv":
        assert out.splitlines() == [",".join(["d", *want]), ",".join(["7", *want.values()])]
    elif len(columns) == 1:
        assert out == f"{want[columns[0]]}\n"
    else:
        assert out.splitlines() == [f"{name} {value}" for name, value in want.items()]


@pytest.mark.parametrize("method", flexdeg.ROUTES)
def test_nd_dispatch_calls_the_patched_route(capsys, monkeypatch, method):
    n5 = flexdeg.flex_report(5).n_closed
    columns, name = flexdeg.ROUTES[method]
    route = getattr(flexdeg, name)

    def off_by_one(d):
        value = route(d)
        return (*value[:-1], value[-1] + 1) if len(columns) > 1 else value + 1

    monkeypatch.setattr(flexdeg, name, off_by_one)
    assert not flexdeg.flex_report(5).agree
    assert run_cli(capsys, "nd", "-d", "5")[0] == 1
    code, out = run_cli(capsys, "nd", "-d", "5", "--method", method, "--format", "csv")
    assert code == 0
    assert out.splitlines()[1].split(",")[-1] == str(n5 + 1)


def test_faulty_route_1_is_a_disagreement_in_any_call_order(capsys, monkeypatch):
    # route 3 checks its sign against literals, not nd_closed, so a faulty
    # nd_closed read by a cold check does not fail route 3
    flexdeg._double_sum_sign.cache_clear()
    route = flexdeg.nd_closed
    monkeypatch.setattr(flexdeg, "nd_closed", lambda d: route(d) + 1)
    assert not flexdeg.flex_report(5).agree
    flexdeg._double_sum_sign.cache_clear()
    code, out = run_cli(capsys, "nd", "-d", "5", "--method", "sum", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "5,-19404,19404"


def test_nd_usage_errors_exit_2(capsys):
    for argv in (["nd", "-d", "0"], ["nd", "-d", "2", "--method", "bogus"], ["nd"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def test_table_single_row(capsys):
    code, out = run_cli(capsys, "table", "--from", "3", "--to", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "175" in lines[1]


def test_table_bad_range_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--from", "2", "--to", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_table_json_flags_rederivable(capsys):
    code, out = run_cli(capsys, "table", "--from", "1", "--to", "6", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 6
    rederived = []
    for row in rows:
        assert isinstance(row["agree"], bool)
        methods = {row["n_closed"], row["n_factorial"], row["n_sum_resolved"],
                   row["n_chern_monomial"], row["n_chern_schubert"]}
        copy = dict(row)
        copy["agree"] = len(methods) == 1
        rederived.append(copy)
    assert json.dumps(rederived, indent=2) == out.rstrip("\n")


def test_yz_text_values(capsys):
    code, out = run_cli(capsys, "yz", "--max-n", "2")
    assert code == 0
    assert out == "1\n24\n324\n"


def test_yz_zero_bound(capsys):
    code, out = run_cli(capsys, "yz", "--max-n", "0")
    assert code == 0
    assert out == "1\n"


def test_yz_csv_row_count(capsys):
    code, out = run_cli(capsys, "yz", "--max-n", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,a"
    assert len(lines) - 1 == 11


def test_crossover_text_report(capsys):
    code, out = run_cli(capsys, "crossover", "--max-d", "20")
    assert code == 0
    data = [line for line in out.splitlines() if line and line.lstrip()[0].isdigit()]
    assert len(data) == 20
    assert "first flex-dominant d (exact coefficients): 10" in out
    assert "first flex-dominant d (growth models): 11" in out
    assert "between d=8 and d=9" in out


def test_crossover_none_reported(capsys):
    code, out = run_cli(capsys, "crossover", "--max-d", "1")
    assert code == 0
    assert "none up to d=1" in out


def test_crossover_json_schema(capsys):
    code, out = run_cli(capsys, "crossover", "--max-d", "20", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert set(obj) == {"rows", "first_flex_dominant", "model_first_flex_dominant",
                        "claimed_window"}
    assert len(obj["rows"]) == 20
    assert obj["first_flex_dominant"] == "10"
    assert obj["rows"][0] == {"d": "1", "n_d": "3", "yz_d": "324", "flex_larger": False}


def test_asym_prints_nine_decimals(capsys):
    code, out = run_cli(capsys, "asym", "-d", "500", "--kind", "flex")
    assert code == 0
    assert out.startswith("flex d=500 log_exact=")
    for token in out.split()[2:]:
        value = token.split("=")[1]
        assert len(value.split(".")[1]) == 9


def test_asym_both_kinds_csv(capsys):
    code, out = run_cli(capsys, "asym", "-d", "10", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,d,log_exact,log_model,log_ratio"
    assert len(lines) == 3
    assert lines[1].startswith("flex,10,")
    assert lines[2].startswith("yz,10,")


def test_selftest_passes(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    assert out == "".join(f"PASS {name}\n" for name, _ in cli.SELFTEST_CHECKS)


def test_selftest_names_failing_check(capsys, monkeypatch):
    def broken():
        raise AssertionError("sign unresolved")

    patched = [("double-sum", broken), *cli.SELFTEST_CHECKS]
    monkeypatch.setattr(cli, "SELFTEST_CHECKS", patched)
    code, out = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL double-sum" in out
    assert "PASS five-way" in out


@pytest.mark.parametrize("d", [1, 57, 120])
def test_five_way_fails_on_a_raw_double_sum_off_by_one(monkeypatch, d):
    real = flexdeg.nd_double_sum

    def raw_off_at_d(n):
        raw, resolved = real(n)
        return (raw + 1, resolved) if n == d else (raw, resolved)

    monkeypatch.setattr(flexdeg, "nd_double_sum", raw_off_at_d)
    name, status, _, detail = cli.run_check("five-way", cli._check_five_way)
    assert (name, status) == ("five-way", "FAIL")
    assert f"at d={d}: " in detail


def test_example_check_failure_names_the_identity(monkeypatch):
    monkeypatch.setattr(cli.flexdeg, "nd_closed", lambda d: 4 if d == 1 else 20)
    with pytest.raises(AssertionError, match=r"^ramification R\^2: 32 != 18$"):
        cli._check_examples()
    monkeypatch.setattr(cli.flexdeg, "nd_closed", lambda d: 3 if d == 1 else 21)
    with pytest.raises(AssertionError, match=r"^Fermat quartic flex degree: 84 != 80$"):
        cli._check_examples()


def test_selftest_json_one_row_per_check(capsys):
    code, out = run_cli(capsys, "selftest", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert [row["name"] for row in rows] == [name for name, _ in cli.SELFTEST_CHECKS]
    for row in rows:
        assert set(row) == {"name", "status", "seconds", "detail"}
        assert row["status"] == "PASS"
        float(row["seconds"])


def test_selftest_csv_failure_row(capsys, monkeypatch):
    for message in ("sign unresolved, raw=3", 'sign "unresolved", raw=3'):

        def broken():
            raise AssertionError(message)

        monkeypatch.setattr(cli, "SELFTEST_CHECKS", [("double-sum", broken)])
        code, out = run_cli(capsys, "selftest", "--format", "csv")
        assert code == 1
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["name"] == "double-sum"
        assert rows[0]["status"] == "FAIL"
        assert rows[0]["detail"] == message
    row = out.splitlines()[1]
    assert row.startswith("double-sum,FAIL,")
    assert row.endswith(',"sign ""unresolved"", raw=3"')


CSV_TEXT = st.text(alphabet=',"\n abcXYZ0189', max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=4).flatmap(
        lambda width: st.tuples(
            st.tuples(*[CSV_TEXT] * width),
            st.lists(st.tuples(*[st.one_of(st.integers(), st.booleans(), CSV_TEXT)] * width), max_size=4),
        )
    )
)
def test_print_csv_matches_csv_writer(table):
    header, rows = table
    expected = io.StringIO()
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(cli._cell, row) for row in rows)
    with contextlib.redirect_stdout(io.StringIO()) as got:
        cli._print_csv(header, rows)
    assert got.getvalue() == expected.getvalue()


def test_csv_quotes_a_carriage_return():
    assert cli._csv_field("a\rb") == '"a\rb"'


def test_output_deterministic(capsys):
    _, first = run_cli(capsys, "table", "--from", "1", "--to", "8", "--format", "json")
    _, second = run_cli(capsys, "table", "--from", "1", "--to", "8", "--format", "json")
    assert first == second


def test_parser_reused_without_state(capsys):
    argv = ("table", "--from", "2", "--to", "5", "--format", "csv")
    before = cli.parse_args(list(argv))
    # this parse fails after it has read --format json and --to 3
    with pytest.raises(SystemExit) as exc:
        cli.main(["table", "--format", "json", "--to", "3", "--from", "x"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert cli.parse_args(list(argv)) == before
    first = run_cli(capsys, *argv)
    second = run_cli(capsys, *argv)
    assert first[0] == 0
    assert first == second


def _boom(d):
    raise RuntimeError(f"internal failure at d={d}")


def test_internal_failure_exits_1_without_debug(capsys, monkeypatch):
    monkeypatch.setattr(cli.flexdeg, "nd_closed", _boom)
    code = cli.main(["nd", "-d", "3", "--method", "closed"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: internal failure at d=3\n"


def test_debug_reraises_with_traceback(capsys, monkeypatch):
    monkeypatch.setattr(cli.flexdeg, "nd_closed", _boom)
    with pytest.raises(RuntimeError, match="internal failure at d=3") as exc:
        cli.main(["--debug", "nd", "-d", "3", "--method", "closed"])
    assert exc.traceback[-1].name == "_boom"
    assert capsys.readouterr().err == ""


def test_debug_reraises_failing_selftest_check(capsys, monkeypatch):
    def divides_by_zero():
        return 1 // 0

    passing = cli.SELFTEST_CHECKS[-1]
    monkeypatch.setattr(cli, "SELFTEST_CHECKS", [passing, ("five-way", divides_by_zero)])
    with pytest.raises(ZeroDivisionError) as exc:
        cli.main(["--debug", "selftest"])
    assert exc.traceback[-1].name == "divides_by_zero"
    captured = capsys.readouterr()
    assert captured.out == f"PASS {passing[0]}\n"
    assert captured.err == ""


def test_debug_keeps_usage_errors_at_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--debug", "table", "--from", "2", "--to", "1"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str limit")
@pytest.mark.parametrize("argv, raises", [
    (["nd", "-d", "3578", "--method", "closed"], None),
    (["nd", "-d", "0"], SystemExit),
    (["--debug", "nd", "-d", "3", "--method", "closed"], RuntimeError),
])
def test_main_restores_int_digit_limit(capsys, monkeypatch, argv, raises):
    if raises is RuntimeError:
        monkeypatch.setattr(cli.flexdeg, "nd_closed", _boom)
    caller_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # CPython's default, so a leaked 0 shows
    try:
        if raises is None:
            assert cli.main(argv) == 0
        else:
            with pytest.raises(raises):
                cli.main(argv)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(caller_limit)
    capsys.readouterr()


def test_closed_stdout_pipe_exits_1_quietly():
    # The output (about 0.6 MB) is far larger than a pipe buffer, so the
    # writes after the close are certain to meet EPIPE.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "flexk3.cli", "yz", "--max-n", "3000"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"1\n"
    proc.stdout.close()
    assert proc.wait(timeout=60) == 1
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_cli_import_loads_no_heavy_module():
    # -S keeps site hooks, which may import typing themselves, out of the count.
    heavy = ("typing", "re", "enum", "argparse", "gettext", "json", "dataclasses", "inspect", "csv")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = f"import sys, flexk3.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# Every argv shape the benchmark issues (bench/workloads.cli_argv and its QUERY_CLI).
BENCHMARK_ARGV = [
    ["table", "--from", "20", "--to", "20", "--format", "csv"],
    *(["nd", "-d", "5", "--method", method] for method in ("closed", "factorial", "sum", "monomial")),
    *(["asym", "-d", "5", "--kind", kind] for kind in ("yz", "flex")),
    ["yz", "--max-n", "12"],
    ["yz", "--max-n", "12", "--format", "csv"],
    ["crossover", "--max-d", "12", "--format", "csv"],
]


def test_benchmark_argv_never_imports_argparse(capsys):
    # -S as above; each main call must be read without argparse (or gettext, which it loads)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = (
        "import io, sys; from flexk3 import cli; sys.stdout = io.StringIO()\n"
        f"codes = [cli.main(argv) for argv in {BENCHMARK_ARGV!r}]\n"
        "loaded = sorted({'argparse', 'gettext'} & set(sys.modules))\n"
        "print(codes, loaded, file=sys.__stdout__)"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{[0] * len(BENCHMARK_ARGV)} []\n"
    # other spellings go to argparse and print the same bytes
    for spelled, exact in (
        ("nd -d 3 --format=csv", "nd -d 3 --format csv"),
        ("table --fr 1 --to 3 --format csv", "table --from 1 --to 3 --format csv"),
    ):
        assert run_cli(capsys, *spelled.split()) == run_cli(capsys, *exact.split())


JSON_TEXT = st.text(alphabet='"\\\n aZ0é€\U0001f600', max_size=8)


def json_table_value(header, rows):
    """The value the json rows encode: one object per row, keyed by header;
    booleans stay JSON booleans and every other value becomes a string."""
    return [
        {name: value if isinstance(value, bool) else str(value) for name, value in zip(header, row)}
        for row in rows
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.tuples(
            st.lists(JSON_TEXT, min_size=width, max_size=width, unique=True).map(tuple),
            st.lists(st.tuples(*[st.one_of(st.integers(), st.booleans(), JSON_TEXT)] * width), max_size=4),
        )
    )
)
def test_json_rows_match_json_dumps(table):
    header, rows = table
    with contextlib.redirect_stdout(io.StringIO()) as got:
        cli._render_rows(header, rows, "json")
    assert got.getvalue() == json.dumps(json_table_value(header, rows), indent=2) + "\n"
    # padded, as crossover nests its rows one level down
    with contextlib.redirect_stdout(io.StringIO()) as got:
        cli._write_json_rows(header, rows, "  ")
    nested = json.dumps({"rows": json_table_value(header, rows)}, indent=2)
    assert '{\n  "rows": ' + got.getvalue() + "\n}" == nested
