"""Test oracle for the two views of a payload: the renderings by json.dumps.

``record_json`` is one strata or smallness row as a dict of a
StratumRecord's ten fields. ``pretty_text`` is the human-readable view of a
payload, each value rendered by ``json.dumps`` on one line. The package
writes both views with its own writer, ``cli._json_text``: the rows as
text, without building these dicts, and the human-readable values in its
one-line layout. It must give the same bytes as the renderings here.
"""

from __future__ import annotations

import json
from fractions import Fraction

from quivermoduli.cli import _Rows


def record_json(rec, brief: bool = False) -> dict:
    """One strata or smallness row: a StratumRecord's ten fields.

    brief words the negative-dimension reason as strata does, without
    smallness's " (-k)" suffix.
    """
    return {
        "type": [[part.coords, mult] for part, mult in rec.luna_type.parts],
        "trivial": rec.luna_type.is_trivial,
        "filtered": rec.filtered,
        "reason": rec.reason and rec.reason.partition(" (-")[0] if brief else rec.reason,
        "local_arrows": None if rec.local_quiver is None else rec.local_quiver.arrows,
        "local_dim": None if rec.local_dim is None else rec.local_dim.coords,
        "local_stability": None if rec.local_stability is None else rec.local_stability.weights,
        "fiber_bound": None if rec.fiber_bound is None else str(Fraction(rec.fiber_bound)),
        "codim_bound": rec.codim_bound,
        "margin": None if rec.margin is None else str(Fraction(rec.margin)),
    }


def _pretty_value(value) -> str:
    if isinstance(value, _Rows):
        value = [record_json(rec, value.brief) for rec in value.records]
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


def pretty_text(payload: dict) -> str:
    """The human-readable view of a command's payload."""
    command = payload.get("command")
    if command == "examples":
        lines = ["available example families:\n"]
        lines += [f"  {fam['name']}: {fam['params']}\n" for fam in payload["families"]]
        return "".join(lines)
    skip = {"command"}
    if command == "ic" and payload.get("route_resolution") is None:
        skip |= {"route_resolution", "routes_agree"}
    return "".join(
        f"{key}: {_pretty_value(value)}\n" for key, value in payload.items() if key not in skip
    )
