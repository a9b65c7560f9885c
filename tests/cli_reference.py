"""The argparse parser the CLI once used, kept as the reference its own parser is tested against.

`build_parser` and `_int_at_least` are the argparse front end `flexk3.cli`
shipped before it read its command table directly; the handlers are the
package's own, so a parsed namespace compares equal field for field.
"""

from __future__ import annotations

import argparse
import functools
from typing import Callable

from flexk3.cli import cmd_asym, cmd_crossover, cmd_nd, cmd_selftest, cmd_table, cmd_yz


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
