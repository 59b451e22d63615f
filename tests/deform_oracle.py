"""Test oracle for the separating-covector search of generic_deformation.

``search_eta_by_enumeration`` walks every integer covector by increasing
sup-norm, ties broken lexicographically with coordinates ordered
0 < 1 < -1 < 2 < -2 < ..., and returns the first that vanishes on d and
on no critical vector. That is (2b + 1)^n candidates at sup-norm b; the
package solves eta(d) = 0 for one coordinate and enumerates the others.

``deformation_violations_by_cells`` and ``deformation_by_cells`` are the
box scans of is_generic_deformation and generic_deformation with a
DimVector per cell.
"""

from __future__ import annotations

from itertools import product

from quivermoduli import DimVector, EtaSearchExhausted, Stability, box_iter
from quivermoduli.deform import _search_eta


def _coord_key(x: int) -> tuple[int, int]:
    return (abs(x), 0 if x >= 0 else 1)


def search_eta_by_enumeration(
    d: DimVector, critical: list[DimVector], max_norm: int
) -> Stability:
    n = len(d)
    for bound in range(1, max_norm + 1):
        values = sorted(range(-bound, bound + 1), key=_coord_key)
        for combo in product(values, repeat=n):
            if max(abs(x) for x in combo) != bound:
                continue
            eta = Stability(combo)
            if eta(d) != 0:
                continue
            if all(eta(e) != 0 for e in critical):
                return eta
    raise EtaSearchExhausted(max_norm)


def deformation_violations_by_cells(
    theta: Stability, theta_prime: Stability, d: DimVector
) -> list[tuple[str, DimVector]]:
    """The violations of is_generic_deformation, read cell by cell.

    Builds a DimVector for every cell of the box and evaluates both
    stabilities on it; the package reads both weights of every cell from
    integer weight lists and builds a DimVector only for a violation.
    """
    violations = []
    target = theta_prime(d)
    if target != 0:
        violations.append(("nonzero_on_d", d))
    for e in box_iter(d):
        if e.is_zero or e == d:
            continue
        te, tpe = theta(e), theta_prime(e)
        if te < 0 and tpe >= 0:
            violations.append(("lost_negativity", e))
        if tpe <= 0 and te > 0:
            violations.append(("gained_nonpositivity", e))
        if tpe == target:
            violations.append(("coprimality_tie", e))
    return violations


def deformation_by_cells(theta: Stability, d: DimVector) -> Stability:
    """generic_deformation with a DimVector per cell: the critical cells, eta
    from the package's search, and the scale C from every signed cell."""
    cells = [(e, theta(e)) for e in box_iter(d) if not e.is_zero and e != d]
    bound = d.total * (d.total**2 + 2) ** (len(d) - 1)
    eta = _search_eta(d, [e for e, te in cells if te == 0], bound)
    scale = 1 + max([0] + [eta(e) if te < 0 else -eta(e) for e, te in cells if te])
    return scale * theta + eta
