"""The benchmark's workloads: fixed lists of CLI invocations.

An item is one call of ``quivermoduli.cli.main(argv)`` with ``stdin`` as
its standard input. Items of kind ``"pinned"`` must reproduce the exit
code and stdout sha256 recorded in ``pins.json`` (when it holds their
key); items of kind ``"contract"`` have no pinned output and must instead
exit 1 or 2 with a single stderr line, the documented failure contract.

This module imports nothing from the package under test: the program
receives only the inputs generated here.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import NamedTuple

WORKLOADS = ("dt_route", "hn_route", "enum", "sweep")

#: Commands that take a problem; ``examples`` is the ninth, problem-free one.
PROBLEM_COMMANDS = ("info", "deform", "pd", "betti", "dt", "ic", "strata", "smallness")

#: Every catalog family at its smallest parameters.
CATALOG_SMALLEST = (
    "determinantal:1,1",
    "points:1,2",
    "levi_adjoint:1",
    "bipartite:1,1,1,1",
    "kronecker_general:0,0",
)

#: Random sweep problems per seed. Small boxes keep every call millisecond-sized,
#: and many of them keep the work of a pass nearly independent of the seed.
SWEEP_RANDOM_PROBLEMS = 120
SWEEP_MAX_COORD = 2
SWEEP_MAX_CELLS = 8

#: Contract items that break the documented failure contract at the seed
#: commit. They still run on every pass; a listed item that violates its
#: contract counts in ``bench.fail_ratio`` but not in ``failed``.
KNOWN_FAILURES = {
    "contract bool-arrow-count": (
        "JSON true is accepted as the arrow count 1 (bool is an int) and exits 0"
    ),
    "contract strata levi_adjoint:11": (
        "the recursive luna_types raises a raw RecursionError instead of exiting 2"
    ),
}


class Item(NamedTuple):
    id: str
    argv: tuple[str, ...]
    stdin: str
    kind: str  # "pinned" or "contract"

    @property
    def key(self) -> str:
        """Content address of the invocation, the key into ``pins.json``."""
        blob = json.dumps([list(self.argv), self.stdin], separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _example(command: str, spec: str) -> Item:
    return Item(f"{command} {spec}", (command, "--example", spec, "--json"), "", "pinned")


def _from_json(command: str, label: str, problem: dict) -> Item:
    text = json.dumps(problem, sort_keys=True)
    return Item(f"{command} {label}", (command, "-", "--json"), text, "pinned")


def _points_deformed(m: int, d: int) -> dict:
    """points(m, d) of the catalog, with its deformed stability as the stability."""
    arrows = [[0] * (m + 1) for _ in range(m + 1)]
    for k in range(m):
        arrows[k][m] = 1
    return {
        "vertices": [f"i{k + 1}" for k in range(m)] + ["j"],
        "arrows": arrows,
        "dimension": [1] * m + [d],
        "stability": [d * d + d] + [d * d] * (m - 1) + [-(m * d + 1)],
    }


def _levi_torus_deformed(l: int) -> dict:
    """levi_adjoint(l) of the catalog, with its deformed stability as the stability."""
    return {
        "vertices": [f"i{p + 1}" for p in range(l)],
        "arrows": [[1] * l for _ in range(l)],
        "dimension": [1] * l,
        "stability": [l - 1] + [-1] * (l - 1),
    }


def _random_problems(seed: int, count: int) -> list[dict]:
    """Distinct small random problems: 2-4 vertices, multiplicities 0-3,
    stability weights in [-3, 3], dimension coordinates at most
    SWEEP_MAX_COORD and at most SWEEP_MAX_CELLS box cells."""
    rng = random.Random(seed)
    seen: set[str] = set()
    problems: list[dict] = []
    while len(problems) < count:
        n = rng.randint(2, 4)
        arrows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        while True:
            dim = [rng.randint(0, SWEEP_MAX_COORD) for _ in range(n)]
            cells = 1
            for c in dim:
                cells *= c + 1
            if any(dim) and cells <= SWEEP_MAX_CELLS:
                break
        problem = {
            "arrows": arrows,
            "dimension": dim,
            "stability": [rng.randint(-3, 3) for _ in range(n)],
        }
        text = json.dumps(problem, sort_keys=True)
        if text not in seen:
            seen.add(text)
            problems.append(problem)
    return problems


def _contract_items() -> list[Item]:
    return [
        Item(
            "contract malformed-json",
            ("info", "-", "--json"),
            '{"arrows": [[0, 1], [1, 0]], "dimension": [1, 1], "stability": [0, ',
            "contract",
        ),
        Item(
            "contract bool-arrow-count",
            ("info", "-", "--json"),
            '{"arrows": [[0, true], [1, 0]], "dimension": [1, 1], "stability": [0, 0]}',
            "contract",
        ),
        Item(
            "contract deform divisible",
            ("deform", "--example", "levi_adjoint:2,2", "--json"),
            "",
            "contract",
        ),
        Item(
            "contract strata levi_adjoint:11",
            ("strata", "--example", "levi_adjoint:11", "--json"),
            "",
            "contract",
        ),
    ]


def items(workload: str, seed: int) -> list[Item]:
    """The items of one workload, cheapest rung first.

    Only ``sweep`` depends on the seed; the other workloads are fixed
    ladders. No invocation occurs twice within a workload.
    """
    if workload == "dt_route":
        # theta = 0 leaves one term in every HN sum: the series log, the
        # SlopeSeries products and RatFunc canonicalisation dominate.
        return [
            _example("dt", "levi_adjoint:2,2,1"),
            _example("dt", "levi_adjoint:3,3"),
            _example("dt", "determinantal:5,5"),
            _example("dt", "levi_adjoint:6"),
        ]
    if workload == "hn_route":
        # the super-exponential decomposition sum p, without pleth_log
        return [
            _from_json("betti", "levi_adjoint:5/deformed", _levi_torus_deformed(5)),
            _from_json("betti", "points:3,3/deformed", _points_deformed(3, 3)),
            _example("pd", "points:4,2"),
            _from_json("betti", "points:4,2/deformed", _points_deformed(4, 2)),
        ]
    if workload == "enum":
        # box scans, the deformation search and Luna-type enumeration; no halfq
        return [
            _example("smallness", "levi_adjoint:2,1,1,1,1"),
            _example("deform", "levi_adjoint:6"),
            _example("strata", "levi_adjoint:7"),
        ]
    if workload == "sweep":
        # millisecond calls where per-call fixed cost dominates
        out = []
        for k, problem in enumerate(_random_problems(seed, SWEEP_RANDOM_PROBLEMS)):
            out += [_from_json(c, f"random{k:03d}", problem) for c in PROBLEM_COMMANDS]
        for spec in CATALOG_SMALLEST:
            out += [_example(c, spec) for c in PROBLEM_COMMANDS]
        out.append(Item("examples", ("examples", "--json"), "", "pinned"))
        return out + _contract_items()
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
