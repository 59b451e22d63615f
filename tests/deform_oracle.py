"""Test oracle for the separating-covector search of generic_deformation.

``search_eta_by_enumeration`` walks every integer covector by increasing
sup-norm, ties broken lexicographically with coordinates ordered
0 < 1 < -1 < 2 < -2 < ..., and returns the first that vanishes on d and
on no critical vector. That is (2b + 1)^n candidates at sup-norm b; the
package solves eta(d) = 0 for one coordinate and enumerates the others.
``search_eta_unsorted`` is the package's pruned walk without its cut to
heads sorted within each class of vertices with equal (d_i, theta_i).

``deformation_violations_by_cells`` and ``deformation_by_cells`` are the
box scans of is_generic_deformation and generic_deformation with a
DimVector per cell.
"""

from __future__ import annotations

import operator
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


def search_eta_unsorted(d: DimVector, critical: list[DimVector], max_norm: int) -> Stability:
    """The search of generic_deformation without its class cut: every head is walked.

    Deterministic: increasing sup-norm, ties broken lexicographically with
    coordinates ordered 0 < 1 < -1 < 2 < -2 < ...; this keeps coefficients
    small and the output reproducible.

    Each sup-norm is searched depth first, setting coordinates 0..n-1 in
    turn. Only x_k, at the last index k with d_k != 0, is not enumerated:
    eta(d) = 0 leaves x_k = -sum_{i<k} x_i d_i / d_k, kept when it is an
    integer with |x_k| <= the sup-norm. Two tests cut a prefix with all its
    extensions:
    - a head x_0..x_j (j < k) whose partial sum |sum_{i<=j} x_i d_i|
      exceeds bound * (sum_{j<i<k} d_i + d_k) leaves no x_k in range;
    - each critical e is tested at the index i of its last nonzero
      coordinate, where eta(e) = v + x_i e_i with v fixed by the head. For
      i < k, v is computed once per head and the one x_i that makes eta(e)
      vanish, if any, is cut; x_k is tested directly.
    A cut prefix has no valid extension, and the walk visits the others in
    lexicographic order, so it returns the first valid candidate of the
    full enumeration, search_eta_by_enumeration above, and raises
    EtaSearchExhausted when none has sup-norm at most max_norm.
    """
    coords = d.coords
    n = len(coords)
    k = max(i for i, c in enumerate(coords) if c)
    dk = coords[k]
    # reach[j]: the largest |sum_{j<i<=k} x_i d_i| at sup-norm 1
    reach = [sum(coords[j + 1 : k + 1]) for j in range(n)]
    checks: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in critical:
        last = max(i for i, c in enumerate(e.coords) if c)
        checks[last].append(e.coords[: last + 1])
    eta = [0] * n

    def walk(i: int, partial: int, bound: int, values: list[int]) -> bool:
        # partial = sum_{j<i} eta_j d_j
        if i == n:
            return max(map(abs, eta)) == bound
        if i == k:
            xk, rest = divmod(-partial, dk)
            if rest or abs(xk) > bound:
                return False
            eta[k] = xk
            return all(sum(map(operator.mul, eta, e)) for e in checks[k]) and walk(
                k + 1, 0, bound, values
            )
        # eta(e) = v + x e_i for a critical e ending at i: x = -v / e_i is cut
        eta[i] = 0
        cut = set()
        for e in checks[i]:
            v = sum(map(operator.mul, eta, e))
            if v % e[i] == 0:
                cut.add(-v // e[i])
        for x in values:
            nxt = partial + x * coords[i]
            if x in cut or (i < k and abs(nxt) > bound * reach[i]):
                continue
            eta[i] = x
            if walk(i + 1, nxt, bound, values):
                return True
        return False

    for bound in range(1, max_norm + 1):
        values = [0] + [x for b in range(1, bound + 1) for x in (b, -b)]
        if walk(0, 0, bound, values):
            return Stability(tuple(eta))
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
    eta = _search_eta(d, theta, [e for e, te in cells if te == 0], bound)
    scale = 1 + max([0] + [eta(e) if te < 0 else -eta(e) for e, te in cells if te])
    return scale * theta + eta
