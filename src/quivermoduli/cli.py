"""Batch command-line front end.

    quivermoduli COMMAND [INPUT.json | -] [--example family:p1,p2,...]
                 [--abelianize] [--assume-nonempty] [--json] [--max-box N]

Reads a problem description (quiver, dimension vector, stability,
optional deformed stability) from a JSON file, stdin, or a named example
family, dispatches one computation (COMMAND_TABLE) and prints the result,
human-readable by default or as canonical JSON with --json. Options may
come in any order, before or after COMMAND; `examples` takes no problem.
argparse defines the grammar; the common form, options spelled in full,
is read in one pass without importing it (_parse_argv).

Exit codes: 0 success, 1 input or parse error (usage errors included) or
output that cannot be written (a closed pipe, a full device), 2 precondition
violation (including the box-enumeration guard), 3 internal consistency
failure. Every error prints one line on stderr.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace
from typing import NamedTuple

from .catalog import FAMILIES, abelianized_quiver, example_from_spec, rank_one_smallness_report
from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Quiver,
    Stability,
    is_coprime,
    is_indivisible,
    moduli_dim,
    normalize_stability,
    skew_rank,
    slope,
    symmetric_on_kernel,
)
from .deform import generic_deformation
from .errors import InternalCheckError, PreconditionError
from .halfq import HalfLaurent, RatFunc
from .invariants import betti_coprime, dt_invariants, ic_poincare_dt, ic_poincare_resolution, p_poly
from .strata import certify_smallness, stratum_records

class ProblemSpec(NamedTuple):
    """Validated problem description consumed by every command."""

    quiver: Quiver
    dim_vector: DimVector
    stability: Stability
    deformed: Stability | None
    assume_nonempty: bool
    family: tuple[str, list[int]] | None = None  # (name, params) when built from --example


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int; neither is a count or a weight
    return type(x) is int


#: The top-level keys of a problem description; any other key is refused.
PROBLEM_KEYS = (
    "vertices", "arrows", "dimension", "stability", "deformed_stability", "assume_nonempty"
)


def _int_vector(data: dict, key: str, n: int, nonnegative: bool) -> tuple[int, ...]:
    vec = data[key]
    kind = "a nonnegative" if nonnegative else "an"
    _require(
        isinstance(vec, list)
        and len(vec) == n
        and all(_is_int(c) and (c >= 0 or not nonnegative) for c in vec),
        f"{key} must be {kind} integer vector matching the quiver",
    )
    return tuple(vec)


def parse_problem_json(text: str) -> ProblemSpec:
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("problem description is nested too deeply") from None
    _require(isinstance(data, dict), "problem description must be a JSON object")
    unknown = sorted(k for k in data if k not in PROBLEM_KEYS)
    _require(not unknown, f"unknown field: {', '.join(unknown)}; known: {', '.join(PROBLEM_KEYS)}")
    _require("arrows" in data, "missing field: arrows")
    _require("dimension" in data, "missing field: dimension")
    _require("stability" in data, "missing field: stability")
    arrows = data["arrows"]
    _require(
        isinstance(arrows, list) and all(isinstance(row, list) for row in arrows),
        "arrows must be a square matrix",
    )
    n = len(arrows)
    _require(all(len(row) == n for row in arrows), "arrows must be a square matrix")
    _require(
        all(_is_int(a) and a >= 0 for row in arrows for a in row),
        "arrow multiplicities must be nonnegative integers",
    )
    vertices = data.get("vertices")
    if vertices is None:
        vertices = [f"v{i}" for i in range(n)]
    _require(
        isinstance(vertices, list) and len(vertices) == n,
        "vertices must list one name per matrix row",
    )
    _require(all(isinstance(v, str) for v in vertices), "vertices must be strings")
    dim = DimVector(_int_vector(data, "dimension", n, nonnegative=True))
    stab = Stability(_int_vector(data, "stability", n, nonnegative=False))
    deformed = None
    if data.get("deformed_stability") is not None:
        deformed = Stability(_int_vector(data, "deformed_stability", n, nonnegative=False))
    assume = data.get("assume_nonempty")
    _require(assume is None or isinstance(assume, bool), "assume_nonempty must be a boolean")
    quiver = Quiver(tuple(vertices), tuple(tuple(row) for row in arrows))
    return ProblemSpec(quiver, dim, stab, deformed, assume is True)


def load_problem(args) -> ProblemSpec:
    if args.example is not None and args.input is not None:
        raise ValueError("give either an input file or --example, not both")
    if args.example is not None:
        # every command enumerates the box, so one the guard refuses is never built
        family, params, setup = example_from_spec(args.example, args.max_box)
        problem = ProblemSpec(*setup, False, (family, params))
    elif args.input is not None:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        problem = parse_problem_json(text)
    else:
        raise ValueError("no input: give a problem JSON path, -, or --example")
    if args.assume_nonempty:
        problem = problem._replace(assume_nonempty=True)
    if args.abelianize:
        quiver, dim, stab = abelianized_quiver(
            problem.quiver, problem.dim_vector, problem.stability, max_box=args.max_box
        )
        problem = problem._replace(quiver=quiver, dim_vector=dim, stability=stab, deformed=None)
    return problem


# ---------------------------------------------------------------------------
# serialization


def poly_json(l: HalfLaurent) -> dict:
    return {
        "v_powers": {str(p): str(c) for p, c in sorted(l.coeffs.items())},
        "pretty": l.pretty(),
    }


def ratfunc_json(r: RatFunc) -> dict:
    num, den = r.num_den()
    return {
        "num": {str(p): str(c) for p, c in sorted(num.coeffs.items())},
        "den": {str(p): str(c) for p, c in sorted(den.coeffs.items())},
        "pretty": r.pretty(),
    }


class _Rows:
    """StratumRecords as the rows of a payload, written by _row_texts.

    brief words the negative-dimension reason as strata does, without
    smallness's " (-k)" suffix.
    """

    __slots__ = ("records", "brief")

    def __init__(self, records, brief: bool):
        self.records, self.brief = records, brief


def _row_texts(rows: _Rows, pad: str) -> list[str]:
    """The rows _json_text writes for rows at pad, one string per record with
    the comma that follows it. The type and local stability are rendered per
    row, the other eight fields once per key: codim, filtered, reason and
    trivial by value, the local quiver, local dim, fibre bound and margin by
    object, which stratum_records shares per Gram key. A type entry
    (part, multiplicity), shared between types, is rendered once."""
    step, comma = ("  ", ",") if pad else ("", ", ")
    # the pads of a row, of its fields and of the items of a field
    row_pad, f, e = pad + step, pad + 2 * step, pad + 3 * step

    def listed(texts: list, at: str) -> str:
        # the list of these item texts at pad at, as _json_text writes it
        inner = at + step
        return f"[{inner}{(comma + inner).join(texts)}{at}]" if texts else "[]"

    def ints(values, at: str) -> str:
        return listed([*map(int.__repr__, values)], at)

    def fields(*items) -> str:
        # the last item has no value yet: its name ends the text
        return comma.join(f'{f}"{name}": {value}' for name, value in items)

    def text(value) -> str:
        return "null" if value is None else _encode_str(str(value))

    def entry(x) -> str:
        return by_id.setdefault(id(x), listed([ints(x[0].coords, e + step), str(x[1])], e))

    # key -> the row's text around its local stability; id -> the text of a
    # type's entry, which the records keep alive, so an id names one object
    by_key: dict[tuple, tuple[str, str]] = {}
    by_id: dict[int, str] = {}
    out = []
    for rec in rows.records:
        lq, ld, fiber, margin = rec.local_quiver, rec.local_dim, rec.fiber_bound, rec.margin
        reason, trivial, ls = rec.reason, rec.luna_type.is_trivial, rec.local_stability
        key = (rec.codim_bound, rec.filtered, reason, trivial, id(lq), id(ld), id(fiber), id(margin))
        around = by_key.get(key)
        if around is None:
            if rows.brief and reason:
                reason = reason.partition(" (-")[0]
            arrows = "null" if lq is None else listed([ints(row, e) for row in lq.arrows], f)
            around = by_key[key] = (
                row_pad + "{" + fields(
                    ("codim_bound", int.__repr__(rec.codim_bound)),
                    ("fiber_bound", text(fiber)),
                    ("filtered", _CONSTANTS[rec.filtered]),
                    ("local_arrows", arrows),
                    ("local_dim", "null" if ld is None else ints(ld.coords, f)),
                    ("local_stability", ""),
                ),
                comma + fields(
                    ("margin", text(margin)),
                    ("reason", text(reason)),
                    ("trivial", _CONSTANTS[trivial]),
                    ("type", ""),
                ),
            )
        parts = [by_id.get(id(x)) or entry(x) for x in rec.luna_type.parts]
        ls = "null" if ls is None else ints(ls.weights, f)
        out.append(f"{around[0]}{ls}{around[1]}{listed(parts, f)}{row_pad}}}{comma}")
    return out


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_text(value, pad: str = "\n") -> list[str]:
    """The text of json.dumps(value, sort_keys=True, indent=2), byte for byte, in chunks.

    pad is a newline plus the indentation of the line value starts on. An
    empty pad gives the one-line text of json.dumps(value, sort_keys=True)
    instead, the layout of the human-readable view.

    Takes dicts with str keys, lists, tuples, str, int, bool and None, and
    _Rows, written as the list of their rows; any other value raises
    TypeError. A list of plain ints is one join, a row one chunk.
    """
    step, comma = ("  ", ",") if pad else ("", ", ")
    chunks: list[str] = []
    put = chunks.append

    def write(value, pad: str) -> None:
        inner = pad + step
        if isinstance(value, str):
            put(_encode_str(value))
        elif value is None or value is True or value is False:
            put(_CONSTANTS[value])
        elif isinstance(value, int):
            put(int.__repr__(value))
        elif isinstance(value, _Rows):
            put("[")
            chunks.extend(_row_texts(value, pad))
            # the closing bracket replaces the last row's comma, or the opening one
            chunks[-1] = chunks[-1][: -len(comma)] + pad + "]" if value.records else "[]"
        elif isinstance(value, (list, tuple)) and {*map(type, value)} == {int}:
            put(f"[{inner}{(comma + inner).join(map(int.__repr__, value))}{pad}]")
        elif isinstance(value, (list, tuple)):
            put("[")
            for item in value:
                put(inner)
                write(item, inner)
                put(comma)
            # the closing bracket replaces the last comma, or the opening one
            chunks[-1] = pad + "]" if value else "[]"
        elif isinstance(value, dict):
            put("{")
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                put(f"{inner}{_encode_str(key)}: ")
                write(value[key], inner)
                put(comma)
            chunks[-1] = pad + "}" if value else "{}"
        else:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")

    write(value, pad)
    return chunks


# ---------------------------------------------------------------------------
# commands


def cmd_info(problem: ProblemSpec, max_box: int) -> dict:
    q, d, theta = problem.quiver, problem.dim_vector, problem.stability
    tnorm = normalize_stability(theta, d)
    # the box guard first: the forms below cost up to O(n^3) on a problem it refuses
    coprime = is_coprime(tnorm, d, max_box)
    return {
        "command": "info",
        "vertices": list(q.vertices),
        "dimension": list(d.coords),
        "stability": list(theta.weights),
        "normalized_stability": list(tnorm.weights),
        "euler_matrix": [list(row) for row in q.euler_matrix()],
        "skew_rank": skew_rank(q),
        "kernel_symmetric": symmetric_on_kernel(q, tnorm),
        "indivisible": is_indivisible(d),
        "coprime": coprime,
        "slope": str(slope(theta, d)),
        "expected_dim": moduli_dim(q, d),
    }


def cmd_deform(problem: ProblemSpec, max_box: int) -> dict:
    d = problem.dim_vector
    tnorm = normalize_stability(problem.stability, d)
    theta_prime = generic_deformation(tnorm, d, max_box)
    return {
        "command": "deform",
        "normalized_stability": list(tnorm.weights),
        "deformed_stability": list(theta_prime.weights),
        "verified": True,  # generic_deformation returns only verified deformations
        "violations": [],
    }


def cmd_pd(problem: ProblemSpec, max_box: int) -> dict:
    value = p_poly(problem.quiver, problem.dim_vector, problem.stability, max_box)
    return {"command": "pd", "p": ratfunc_json(value)}


def cmd_betti(problem: ProblemSpec, max_box: int) -> dict:
    value = betti_coprime(problem.quiver, problem.dim_vector, problem.stability, max_box)
    return {
        "command": "betti",
        "betti": poly_json(value),
        "assumed_nonempty": problem.assume_nonempty,
    }


def cmd_dt(problem: ProblemSpec, max_box: int) -> dict:
    values = dt_invariants(problem.quiver, problem.stability, problem.dim_vector, max_box)
    # dt_invariants shares one value object per orbit, so render each once
    texts = {i: ratfunc_json(v) for i, v in {id(v): v for v in values.values()}.items()}
    rows = [
        {"exponent": list(e.coords), "dt": texts[id(v)]}
        for e, v in sorted(values.items(), key=lambda kv: kv[0].coords)
    ]
    return {"command": "dt", "invariants": rows}


def cmd_ic(problem: ProblemSpec, max_box: int) -> dict:
    q, d, theta = problem.quiver, problem.dim_vector, problem.stability
    via_dt = ic_poincare_dt(q, d, theta, max_box)
    rendered = poly_json(via_dt)
    payload = {
        "command": "ic",
        "result": rendered,
        "route_dt": rendered,
        "route_resolution": None,
        "routes_agree": None,
        "assumed_nonempty": problem.assume_nonempty,
    }
    if problem.deformed is not None:
        via_res = ic_poincare_resolution(q, d, theta, problem.deformed, max_box)
        payload["route_resolution"] = poly_json(via_res)
        payload["routes_agree"] = via_res == via_dt
        if via_res != via_dt:
            raise InternalCheckError(
                f"routes disagree: {via_dt.pretty()} vs {via_res.pretty()}"
            )
    return payload


def _ensure_deformed(problem: ProblemSpec, max_box: int):
    if problem.deformed is not None:
        return problem.deformed, False
    tnorm = normalize_stability(problem.stability, problem.dim_vector)
    return generic_deformation(tnorm, problem.dim_vector, max_box), True


def cmd_strata(problem: ProblemSpec, max_box: int) -> dict:
    q, d = problem.quiver, problem.dim_vector
    theta_prime, derived = _ensure_deformed(problem, max_box)
    records = stratum_records(q, d, problem.stability, theta_prime, max_box)
    return {
        "command": "strata",
        "deformed_stability": list(theta_prime.weights),
        "derived_deformation": derived,
        "types": _Rows(records, brief=True),
    }


def cmd_smallness(problem: ProblemSpec, max_box: int) -> dict:
    q, d = problem.quiver, problem.dim_vector
    theta_prime, derived = _ensure_deformed(problem, max_box)
    report = certify_smallness(
        q, d, problem.stability, theta_prime, problem.assume_nonempty, max_box
    )
    payload = {
        "command": "smallness",
        "verdict": report.verdict,
        "reasons": list(report.reasons),
        "records": _Rows(report.records, brief=False),
        "assume_stable_nonempty": report.assume_stable_nonempty,
        "kernel_symmetric": report.kernel_symmetric,
        "deformation_ok": report.deformation_ok,
        "deformed_stability": list(theta_prime.weights),
        "derived_deformation": derived,
    }
    if problem.family and problem.family[0] == "kronecker_general":
        m, n = problem.family[1]
        if m >= 1 and n >= 1:
            closed = rank_one_smallness_report(m, n)
            payload["closed_form"] = {
                "fiber_dim": closed.fiber_dim,
                "stratum_codim": closed.stratum_codim,
                "small": closed.small,
                "note": closed.note,
            }
    return payload


def cmd_examples() -> dict:
    return {
        "command": "examples",
        "families": [
            {"name": name, "params": doc} for name, (_, doc) in sorted(FAMILIES.items())
        ],
    }


# ---------------------------------------------------------------------------
# pretty printing


def _pretty_lines(payload: dict):
    """The human-readable view, one line at a time."""
    command = payload.get("command")
    if command == "examples":
        yield "available example families:\n"
        for fam in payload["families"]:
            yield f"  {fam['name']}: {fam['params']}\n"
        return
    skip = {"command"}
    if command == "ic" and payload.get("route_resolution") is None:
        skip |= {"route_resolution", "routes_agree"}
    for key, value in payload.items():
        if key in skip:
            continue
        yield f"{key}: {_pretty_value(value)}\n"


def _pretty_value(value) -> str:
    """A payload value as the rest of its line in the human-readable view.

    A result's pretty text, a scalar's str, or else its one-line JSON text;
    a list of dicts, or of rows, puts each item on a line of its own.
    """
    if isinstance(value, dict) and "pretty" in value:
        return value["pretty"]
    if isinstance(value, _Rows) and value.records:
        # a one-line row ends with the ", " that follows it in a list
        return "".join([f"\n  - {row[:-2]}" for row in _row_texts(value, "")])
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return "".join([f"\n  - {''.join(_json_text(item, ''))}" for item in value])
    if isinstance(value, (dict, list, _Rows)):
        return "".join(_json_text(value, ""))
    return str(value)


# ---------------------------------------------------------------------------
# entry point


#: Every command: name -> (handler, one-line help). The parser's choices, the
#: --help listing and the dispatch in main all read this table.
COMMAND_TABLE = {
    "info": (cmd_info, "forms, ranks, coprimality and expected dimension"),
    "deform": (cmd_deform, "construct and verify a generic deformation of the stability"),
    "pd": (cmd_pd, "decomposition-sum rational function for the stability"),
    "betti": (cmd_betti, "Betti polynomial of the moduli space (coprime case)"),
    "dt": (cmd_dt, "all slope-zero Donaldson-Thomas invariants up to d"),
    "ic": (cmd_ic, "intersection-cohomology Poincare polynomial (both routes if deformed given)"),
    "strata": (cmd_strata, "decomposition types, local quivers and bounds"),
    "smallness": (cmd_smallness, "smallness certification report"),
    "examples": (cmd_examples, "list the catalog example families"),
}


#: Every option but -h/--help: name -> (metavar, or None for a switch, default,
#: one-line help). The argv pass, the argparse parser and the parsed fields
#: read this table; an option's field is its name without dashes, - read as _.
_OPTION_TABLE = {
    "--example": ("EXAMPLE", None, "catalog example, family:p1,p2,..."),
    "--abelianize": (None, False, "split every vertex into unit-dimension copies before computing"),
    "--assume-nonempty": (None, False, "record the nonemptiness assumption in the output"),
    "--json": (None, False, "emit canonical JSON"),
    "--max-box": ("MAX_BOX", DEFAULT_MAX_BOX, "cap on box-enumeration cells (default 10^6)"),
}
_DEFAULTS = {name[2:].replace("-", "_"): default for name, (_, default, _) in _OPTION_TABLE.items()}


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return value


def _parse_argv(argv):
    """The fields of argv, or None when it asks for --help.

    The common form is read here in one pass: a known COMMAND and an
    optional input (- or a token that does not start with -) among options
    spelled in full, a value as --opt=value or as the next token, the last repeat of
    an option winning. Any other argv, from usage errors to -h, abbreviated
    options, --, negative numbers and values that start with -, goes to
    argparse's parse_intermixed_args, whose verdict it is. Usage errors
    raise ValueError.
    """
    fields = dict(_DEFAULTS)
    operands = []
    tokens = iter(argv)
    for token in tokens:
        if token[:1] != "-" or token == "-":
            operands.append(token)
            continue
        name, eq, value = token.partition("=")
        spec = _OPTION_TABLE.get(name)
        if spec is None:
            break
        if spec[0] is None:
            if eq:
                break
            value = True
        else:
            if not eq:
                value = next(tokens, "-")  # a missing value reads as one that starts with -
            if value[:1] == "-":
                break
            if name == "--max-box":
                try:
                    value = _positive_int(value)
                except ValueError:
                    break
        fields[name[2:].replace("-", "_")] = value
    else:
        if 0 < len(operands) < 3 and operands[0] in COMMAND_TABLE:
            fields["input"] = operands[1] if len(operands) == 2 else None
            return SimpleNamespace(command=operands[0], **fields)
    try:
        return _parser().parse_intermixed_args(argv)
    except SystemExit:  # the help action's exit
        return None


@functools.cache
def _parser():
    """The argparse parser of this grammar, built on first use.

    Its usage errors raise ValueError and its help action prints nothing;
    every help text is laid out at 80 columns whatever COLUMNS says.
    """
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            # a usage error is an input error: main prints it on one line and exits 1
            raise ValueError(message)

        def print_help(self, file=None):
            """Nothing: the help action exits next, and main writes _help_text()."""

    def max_box(text: str) -> int:
        try:
            return _positive_int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(exc) from None

    listing = "".join(f"\n  {name:<10} {text}" for name, (_, text) in COMMAND_TABLE.items())
    parser = Parser(
        prog="quivermoduli",
        description="exact invariants of moduli of semistable quiver representations",
        epilog="commands:" + listing,
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter, width=78),
    )
    parser.add_argument("command", metavar="COMMAND", choices=COMMAND_TABLE)
    parser.add_argument("input", nargs="?", help="problem JSON path, or - for stdin")
    for name, (metavar, default, text) in _OPTION_TABLE.items():
        if metavar is None:
            parser.add_argument(name, action="store_true", help=text)
        else:
            kind = max_box if name == "--max-box" else None
            parser.add_argument(name, metavar=metavar, default=default, type=kind, help=text)
    return parser


def _help_text() -> str:
    """The --help text, as argparse renders this grammar at 80 columns."""
    return _parser().format_help()


def main(argv=None) -> int:
    try:
        args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.exit(_write_out([_help_text()]))
        handler, _ = COMMAND_TABLE[args.command]
        if args.command != "examples":
            payload = handler(load_problem(args), args.max_box)
        elif (args.input, args.example) != (None, None) or args.abelianize or args.assume_nonempty:
            raise ValueError("examples takes no input, --example, --abelianize or --assume-nonempty")
        else:
            payload = handler()
    except PreconditionError as exc:
        sys.stderr.write(f"error: precondition: {exc}\n")
        return 2
    except InternalCheckError as exc:
        sys.stderr.write(f"error: internal-consistency: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: input: {exc}\n")
        return 1
    if args.json:
        # chunk by chunk: the rows of a large strata table are never joined
        return _write_out([*_json_text(payload), "\n"])
    return _write_out(_pretty_lines(payload))


def _write_out(chunks) -> int:
    """Write chunks to stdout: 0, or 1 with one line on stderr if stdout refuses them."""
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()  # a write error surfaces here, not at the exit flush
    except OSError as exc:
        # a closed pipe or a full device: what is still buffered goes to the
        # null device, so the interpreter's flush at exit stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write(f"error: output: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
