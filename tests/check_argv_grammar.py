"""Compare the CLI's argv reader with the argparse oracle on random argv.

    PYTHONPATH=src:tests python tests/check_argv_grammar.py [COUNT]

Draws COUNT argv (default 20,000) from a fixed-seed stream over the token
alphabet of test_cli's test_same_verdict_as_the_oracle, plus -hx, --he and
--, and runs each through ``quivermoduli.cli._parse_argv`` and
``cli_oracle.oracle_parse``. Both must give the same verdict: the same
fields, the same help text, or a usage error with the same message. Prints
the count and exits 0, or prints the first argv they disagree on and exits
1. argparse changes between Python releases, so this runs on every
supported one; it needs only the standard library.
"""

from __future__ import annotations

import random
import sys

from cli_oracle import oracle_parse

from quivermoduli.cli import COMMAND_TABLE, _help_text, _parse_argv

LONG_NAMES = ["--help", "--example", "--abelianize", "--assume-nonempty", "--json", "--max-box"]
OPTION_WORDS = [name[:k] for name in LONG_NAMES for k in range(3, len(name) + 1)]
VALUES = ["5", "0", "-5", "many", "", "levi_adjoint:2", "-"]
PLAIN = [*COMMAND_TABLE, "nonsense", "-", "p.json", "--", "-h", "-x", "--bogus", "-hx", "--he"]


def random_argv(rng: random.Random) -> list[str]:
    argv = []
    for _ in range(rng.randint(0, 6)):
        kind = rng.randrange(4)
        if kind == 0:
            argv.append(rng.choice(PLAIN))
        elif kind == 1:
            argv.append(rng.choice(OPTION_WORDS))
        elif kind == 2:
            argv.append(f"{rng.choice(OPTION_WORDS)}={rng.choice(VALUES)}")
        else:
            argv.append(rng.choice(VALUES))
    return argv


def verdict(argv: list[str]):
    try:
        args = _parse_argv(argv)
    except ValueError as exc:
        return "error", str(exc)
    if args is None:
        return "help", _help_text()
    return "ok", vars(args)


def main() -> int:
    count = int(sys.argv[1]) if len(sys.argv) > 1 else 20_000
    rng = random.Random(0)
    for _ in range(count):
        argv = random_argv(rng)
        expected, got = oracle_parse(argv), verdict(argv)
        if got != expected:
            print(f"mismatch on {argv!r}: oracle {expected!r}, reader {got!r}")
            return 1
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{count} argv, 0 mismatches (Python {version})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
