"""Batch command-line front end.

Reads a problem description (quiver, dimension vector, stability,
optional deformed stability) from a JSON file, stdin, or a named example
family, dispatches one computation and prints the result, human-readable
by default or as canonical JSON with --json.

Exit codes: 0 success, 1 input or parse error, 2 precondition violation
(including the box-enumeration guard), 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .catalog import FAMILIES, abelianized_quiver, build_example, rank_one_smallness_report
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
from .deform import generic_deformation, is_generic_deformation
from .errors import InternalCheckError, PreconditionError
from .halfq import HalfLaurent, RatFunc
from .invariants import betti_coprime, dt_invariants, ic_poincare_dt, ic_poincare_resolution, p_poly
from .strata import certify_smallness, stratum_records

COMMANDS = ("info", "deform", "pd", "betti", "dt", "ic", "strata", "smallness", "examples")


class ProblemSpec:
    """Validated problem description consumed by every command."""

    def __init__(self, quiver, dim_vector, stability, deformed, assume_nonempty, family=None):
        self.quiver = quiver
        self.dim_vector = dim_vector
        self.stability = stability
        self.deformed = deformed
        self.assume_nonempty = assume_nonempty
        self.family = family  # (name, params) when built from --example


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int; neither is a count or a weight
    return type(x) is int


def parse_problem_json(text: str) -> ProblemSpec:
    data = json.loads(text)
    _require(isinstance(data, dict), "problem description must be a JSON object")
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
    dim = data["dimension"]
    _require(
        isinstance(dim, list) and len(dim) == n and all(_is_int(c) and c >= 0 for c in dim),
        "dimension must be a nonnegative integer vector matching the quiver",
    )
    stab = data["stability"]
    _require(
        isinstance(stab, list) and len(stab) == n and all(_is_int(w) for w in stab),
        "stability must be an integer vector matching the quiver",
    )
    deformed = data.get("deformed_stability")
    if deformed is not None:
        _require(
            isinstance(deformed, list)
            and len(deformed) == n
            and all(_is_int(w) for w in deformed),
            "deformed_stability must be an integer vector matching the quiver",
        )
        deformed = Stability(tuple(deformed))
    assume = data.get("assume_nonempty", False)
    _require(isinstance(assume, bool), "assume_nonempty must be a boolean")
    return ProblemSpec(
        Quiver(tuple(str(v) for v in vertices), tuple(tuple(row) for row in arrows)),
        DimVector(tuple(dim)),
        Stability(tuple(stab)),
        deformed,
        assume,
    )


def _parse_example(text: str):
    family, sep, rest = text.partition(":")
    _require(bool(sep), "example must look like family:p1,p2,...")
    params = [int(x) for x in rest.split(",") if x.strip() != ""]
    return family.strip(), params


def load_problem(args) -> ProblemSpec:
    if args.example and args.input:
        raise ValueError("give either an input file or --example, not both")
    if args.example:
        family, params = _parse_example(args.example)
        setup = build_example(family, params)
        problem = ProblemSpec(
            setup.quiver,
            setup.dim_vector,
            setup.stability,
            setup.deformed,
            bool(args.assume_nonempty),
            family=(family, params),
        )
    elif args.input:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        problem = parse_problem_json(text)
        if args.assume_nonempty:
            problem.assume_nonempty = True
    else:
        raise ValueError("no input: give a problem JSON path, -, or --example")
    if getattr(args, "abelianize", False):
        quiver, dim, stab = abelianized_quiver(problem.quiver, problem.dim_vector, problem.stability)
        problem = ProblemSpec(quiver, dim, stab, None, problem.assume_nonempty, problem.family)
    return problem


# ---------------------------------------------------------------------------
# serialization


def frac_str(x) -> str:
    return str(Fraction(x))


def poly_json(l: HalfLaurent) -> dict:
    return {
        "v_powers": {str(p): frac_str(c) for p, c in sorted(l.coeffs.items())},
        "pretty": l.pretty(),
    }


def ratfunc_json(r: RatFunc) -> dict:
    num, den = r.num_den()
    return {
        "num": {str(p): frac_str(c) for p, c in sorted(num.coeffs.items())},
        "den": {str(p): frac_str(c) for p, c in sorted(den.coeffs.items())},
        "pretty": r.pretty(),
    }


def _record_json(rec) -> dict:
    """One strata or smallness row: a StratumRecord's ten fields."""
    return {
        "type": [[list(part.coords), mult] for part, mult in rec.luna_type.parts],
        "trivial": rec.luna_type.is_trivial,
        "filtered": rec.filtered,
        "reason": rec.reason,
        "local_arrows": None
        if rec.local_quiver is None
        else [list(r) for r in rec.local_quiver.arrows],
        "local_dim": None if rec.local_dim is None else list(rec.local_dim.coords),
        "local_stability": None
        if rec.local_stability is None
        else list(rec.local_stability.weights),
        "fiber_bound": None if rec.fiber_bound is None else frac_str(rec.fiber_bound),
        "codim_bound": rec.codim_bound,
        "margin": None if rec.margin is None else frac_str(rec.margin),
    }


# ---------------------------------------------------------------------------
# commands


def cmd_info(problem: ProblemSpec, max_box: int) -> dict:
    q, d, theta = problem.quiver, problem.dim_vector, problem.stability
    tnorm = normalize_stability(theta, d)
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
        "coprime": is_coprime(tnorm, d, max_box),
        "slope": frac_str(slope(theta, d)),
        "expected_dim": moduli_dim(q, d),
    }


def cmd_deform(problem: ProblemSpec, max_box: int) -> dict:
    q, d = problem.quiver, problem.dim_vector
    tnorm = normalize_stability(problem.stability, d)
    theta_prime = generic_deformation(tnorm, d, max_box)
    verdict = is_generic_deformation(tnorm, theta_prime, d, max_box)
    return {
        "command": "deform",
        "normalized_stability": list(tnorm.weights),
        "deformed_stability": list(theta_prime.weights),
        "verified": verdict.passed,
        "violations": [[kind, list(e.coords)] for kind, e in verdict.violations],
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
    rows = [
        {"exponent": list(e.coords), "dt": ratfunc_json(v)}
        for e, v in sorted(values.items(), key=lambda kv: kv[0].coords)
    ]
    return {"command": "dt", "invariants": rows}


def cmd_ic(problem: ProblemSpec, max_box: int) -> dict:
    q, d, theta = problem.quiver, problem.dim_vector, problem.stability
    via_dt = ic_poincare_dt(q, d, theta, max_box)
    payload = {
        "command": "ic",
        "result": poly_json(via_dt),
        "route_dt": poly_json(via_dt),
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
    # strata words the negative-dimension reason without smallness's " (-k)" suffix
    rows = [dict(_record_json(r), reason=r.reason and r.reason.partition(" (-")[0]) for r in records]
    return {
        "command": "strata",
        "deformed_stability": list(theta_prime.weights),
        "derived_deformation": derived,
        "types": rows,
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
        "records": [_record_json(rec) for rec in report.records],
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


def _print_pretty(payload: dict, out) -> None:
    command = payload.get("command")
    if command == "examples":
        out.write("available example families:\n")
        for fam in payload["families"]:
            out.write(f"  {fam['name']}: {fam['params']}\n")
        return
    skip = {"command"}
    if command == "ic" and payload.get("route_resolution") is None:
        skip |= {"route_resolution", "routes_agree"}
    for key, value in payload.items():
        if key in skip:
            continue
        out.write(f"{key}: {_pretty_value(value)}\n")


def _pretty_value(value) -> str:
    if isinstance(value, dict):
        if "pretty" in value:
            return value["pretty"]
        return json.dumps(value, sort_keys=True)
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            lines = [""]
            for item in value:
                lines.append("  - " + json.dumps(item, sort_keys=True))
            return "\n".join(lines)
        return json.dumps(value)
    return str(value)


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit canonical JSON")
    common.add_argument(
        "--max-box",
        type=int,
        default=DEFAULT_MAX_BOX,
        help="cap on box-enumeration cells (default 10^6)",
    )
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("input", nargs="?", help="problem JSON path, or - for stdin")
    inputs.add_argument("--example", help="catalog example, family:p1,p2,...")
    inputs.add_argument(
        "--abelianize",
        action="store_true",
        help="split every vertex into unit-dimension copies before computing",
    )
    inputs.add_argument(
        "--assume-nonempty",
        action="store_true",
        help="record the nonemptiness assumption in the output",
    )
    parser = argparse.ArgumentParser(
        prog="quivermoduli",
        description="exact invariants of moduli of semistable quiver representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "info": "forms, ranks, coprimality and expected dimension",
        "deform": "construct and verify a generic deformation of the stability",
        "pd": "decomposition-sum rational function for the stability",
        "betti": "Betti polynomial of the moduli space (coprime case)",
        "dt": "all slope-zero Donaldson-Thomas invariants up to d",
        "ic": "intersection-cohomology Poincare polynomial (both routes if deformed given)",
        "strata": "decomposition types, local quivers and bounds",
        "smallness": "smallness certification report",
        "examples": "list the catalog example families",
    }
    for name in COMMANDS:
        parents = [common] if name == "examples" else [common, inputs]
        sub.add_parser(name, parents=parents, help=helps[name])
    return parser


def run_command(args) -> dict:
    if args.command == "examples":
        return cmd_examples()
    problem = load_problem(args)
    max_box = args.max_box
    handlers = {
        "info": cmd_info,
        "deform": cmd_deform,
        "pd": cmd_pd,
        "betti": cmd_betti,
        "dt": cmd_dt,
        "ic": cmd_ic,
        "strata": cmd_strata,
        "smallness": cmd_smallness,
    }
    return handlers[args.command](problem, max_box)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload = run_command(args)
    except PreconditionError as exc:
        sys.stderr.write(f"error: precondition: {exc}\n")
        return 2
    except InternalCheckError as exc:
        sys.stderr.write(f"error: internal-consistency: {exc}\n")
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: input: {exc}\n")
        return 1
    if args.json:
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _print_pretty(payload, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
