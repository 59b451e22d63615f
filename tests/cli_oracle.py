"""Test oracle for the command line: the argparse grammar of the CLI, written out.

``_build_parser`` builds the argparse grammar of ``quivermoduli.cli`` from
its command table, option by option, and ``oracle_parse`` runs
``parse_intermixed_args`` on it. The package reads the common form of argv
in one pass and builds its own parser from its tables for the rest; either
way it must accept and refuse the same argv with the same fields, and print
the same --help text as ``format_help()`` at 80 columns.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
from unittest import mock

from quivermoduli.cli import COMMAND_TABLE, _positive_int
from quivermoduli.core import DEFAULT_MAX_BOX


def _max_box(text: str) -> int:
    try:
        return _positive_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is an input error: the CLI prints it on one line and exits 1
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later call."""
    listing = "".join(f"\n  {name:<10} {text}" for name, (_, text) in COMMAND_TABLE.items())
    parser = _Parser(
        prog="quivermoduli",
        description="exact invariants of moduli of semistable quiver representations",
        epilog="commands:" + listing,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", metavar="COMMAND", choices=COMMAND_TABLE)
    parser.add_argument("input", nargs="?", help="problem JSON path, or - for stdin")
    parser.add_argument("--example", help="catalog example, family:p1,p2,...")
    parser.add_argument(
        "--abelianize",
        action="store_true",
        help="split every vertex into unit-dimension copies before computing",
    )
    parser.add_argument(
        "--assume-nonempty",
        action="store_true",
        help="record the nonemptiness assumption in the output",
    )
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    parser.add_argument(
        "--max-box",
        type=_max_box,
        default=DEFAULT_MAX_BOX,
        help="cap on box-enumeration cells (default 10^6)",
    )
    # unless usage is set, parse_intermixed_args renders this same text for its
    # error messages on every call and throws it away afterwards; it is laid out
    # at 80 columns, as the help text that shows it
    with mock.patch.dict(os.environ, COLUMNS="80"):
        parser.usage = parser.format_usage()[7:]
    return parser


def oracle_parse(argv: list[str]):
    """("help", text at 80 columns), ("error", message) or ("ok", fields) for argv."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args = _build_parser().parse_intermixed_args(argv)
    except SystemExit:
        # only the help action exits: parse again to lay its text out at 80
        # columns, since patching COLUMNS copies and restores the environment
        out = io.StringIO()
        with (
            contextlib.suppress(SystemExit),
            contextlib.redirect_stdout(out),
            mock.patch.dict(os.environ, COLUMNS="80"),
        ):
            _build_parser().parse_intermixed_args(argv)
        return "help", out.getvalue()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", vars(args)
