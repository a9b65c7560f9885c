"""Golden CLI output: stdout bytes and exit codes pinned at small sizes.

Each command's stdout is pinned by the first 16 hex digits of its SHA-256;
a mismatch prints the full output, so a deliberate schema change can be
reviewed and re-pinned.  Usage errors pin only the last stderr line, the
error itself; the usage line above it restates the options of cli.COMMANDS
and says nothing about the error.  Text selftest is pinned; its csv and
json forms carry timings.  The two d = 3578 cases print an n_d of more
than 4300 digits, which CPython refuses to convert to a string unless the
CLI lifts its limit.
"""

from __future__ import annotations

import hashlib

import pytest

from flexk3 import cli

STDOUT = [
    ("nd -d 7 --method closed", 0, "361c800f7fffca1b"),
    ("nd -d 7 --method factorial --format csv", 0, "f00ba5e8d77403ea"),
    ("nd -d 7 --method sum", 0, "2a3ed12ebee970f7"),
    ("nd -d 5 --method sum --format json", 0, "294b5cd78f1ed7f5"),
    ("nd -d 7 --method monomial --format json", 0, "175c9d52fb492bbc"),
    ("nd -d 6 --method schubert", 0, "0bad11fda0c40d90"),
    ("nd -d 7 --method schubert --format csv", 0, "426e7e1e95c9fe03"),
    ("nd -d 7", 0, "4e6597a69121c353"),
    ("nd -d 4 --method all --format csv", 0, "d734bc39398b4d97"),
    ("nd -d 3 --method all --format json", 0, "e69a1c96cfa35a2d"),
    # n_3578 has 4302 digits, past CPython's default int-to-str limit of 4300
    ("nd -d 3578 --method closed", 0, "dd787544d31df9c1"),
    ("nd -d 3578 --method factorial --format json", 0, "e84382015a4e83e5"),
    ("table --from 1 --to 6", 0, "f46a335763a26d92"),
    ("table --from 1 --to 6 --format csv", 0, "11935d1040c438a3"),
    ("table --from 1 --to 6 --format json", 0, "5d513634f570a080"),
    ("yz --max-n 0", 0, "4355a46b19d348dc"),
    ("yz --max-n 12", 0, "b170f129b291f350"),
    ("yz --max-n 12 --format csv", 0, "b667a3cdc8f38858"),
    ("yz --max-n 12 --format json", 0, "dca466487d9d5dcc"),
    ("crossover --max-d 1", 0, "56b6a15101989d65"),
    ("crossover --max-d 1 --format json", 0, "c270d374ef675435"),
    ("crossover --max-d 12", 0, "0eae7a10a3f73369"),
    ("crossover --max-d 12 --format csv", 0, "bdc57cc5b374cea7"),
    ("crossover --max-d 12 --format json", 0, "beefef9a2b1f875d"),
    # 300 rows, written one at a time: pinned from the output of one json.dumps
    ("crossover --max-d 300 --format json", 0, "893647bf37f0d07b"),
    ("asym -d 40 --kind flex", 0, "5832f8e33f82f205"),
    ("asym -d 40 --kind yz --format csv", 0, "932fa370c7d27d2a"),
    ("asym -d 40 --kind both --format json", 0, "0290773edbff8844"),
    ("asym -d 40", 0, "51f06ef7b005a0ec"),
    ("selftest", 0, "7580ea0866e255cc"),
]

USAGE_ERRORS = [
    ("nd -d 0", "flexk3 nd: error: argument -d: must be a positive integer, got 0"),
    ("nd -d x", "flexk3 nd: error: argument -d: not an integer: 'x'"),
    ("yz --max-n -1", "flexk3 yz: error: argument --max-n: must be nonnegative, got -1"),
    ("table --from 5 --to 2", "flexk3: error: --from 5 exceeds --to 2"),
    ("asym -d 0", "flexk3 asym: error: argument -d: must be a positive integer, got 0"),
]


@pytest.mark.parametrize("command, code, digest", STDOUT, ids=[c for c, _, _ in STDOUT])
def test_stdout_and_exit_code(capsys, command, code, digest):
    got_code = cli.main(command.split())
    out = capsys.readouterr().out
    got_digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert (got_code, got_digest) == (code, digest), f"flexk3 {command} printed:\n{out}"


@pytest.mark.parametrize("command, last_line", USAGE_ERRORS, ids=[c for c, _ in USAGE_ERRORS])
def test_usage_error_line(capsys, command, last_line):
    with pytest.raises(SystemExit) as exc:
        cli.main(command.split())
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == last_line
