"""Generic deformations of stabilities.

A deformed stability must keep every strictly destabilizing subvector
strictly destabilizing, must not produce new nonpositive values on
subvectors, and must separate d from all its proper subvectors
(coprimality). Such a deformation always exists for indivisible d and is
constructed here from a separating covector eta, found by a pruned
depth-first search (see _search_eta) within a sup-norm bound that d
fixes (see generic_deformation). Every constructed deformation is
verified by is_generic_deformation.
"""

from __future__ import annotations

import operator
from itertools import islice

from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Stability,
    _cell_weights,
    _Record,
    box_size,
    check_box,
    is_indivisible,
    sub_box,
)
from .errors import EtaSearchExhausted, InternalCheckError, PreconditionError

class DeformationVerdict(_Record):
    """Outcome of a generic-deformation check with the offending vectors."""

    __slots__ = ("passed", "violations")
    passed: bool
    violations: tuple[tuple[str, DimVector], ...]

    def __bool__(self) -> bool:
        return self.passed

    def __str__(self) -> str:
        """The first three violations, each as its reason and its vector's coordinates."""
        return ", ".join(f"{reason} {e.coords}" for reason, e in self.violations[:3])


def is_generic_deformation(
    theta: Stability,
    theta_prime: Stability,
    d: DimVector,
    max_box: int = DEFAULT_MAX_BOX,
) -> DeformationVerdict:
    """Check that theta_prime generically deforms theta with respect to d.

    Enumerates all 0 != e < d (componentwise, e != d) and verifies:
    negative theta-values stay negative, nonpositive deformed values only
    occur where theta was already nonpositive, and no proper subvector
    ties the deformed value of d. The deformed stability is additionally
    required to vanish on d itself, so the coprimality check reduces to
    theta_prime(e) != 0. Both weights of every cell come from _cell_weights
    in integers; a DimVector is built only for a reported violation.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    if theta(d) != 0:
        raise PreconditionError("stability does not vanish on d; normalize it first")
    check_box(d, max_box)
    violations: list[tuple[str, DimVector]] = []
    target = theta_prime(d)
    if target != 0:
        violations.append(("nonzero_on_d", d))
    s = d.coords
    cells = zip(sub_box(s), _cell_weights(theta.weights, s), _cell_weights(theta_prime.weights, s))
    # every cell but the first (zero) and the last (d)
    for e, te, tpe in islice(cells, 1, box_size(d) - 1):
        if te < 0 and tpe >= 0:
            violations.append(("lost_negativity", DimVector(e)))
        if tpe <= 0 and te > 0:
            violations.append(("gained_nonpositivity", DimVector(e)))
        if tpe == target:
            violations.append(("coprimality_tie", DimVector(e)))
    return DeformationVerdict(not violations, tuple(violations))


def _search_eta(d: DimVector, critical: list[DimVector], max_norm: int) -> Stability:
    """First integer covector vanishing on d and nonzero on the critical set.

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
    full enumeration, the test oracle in tests/deform_oracle.py, and raises
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


def generic_deformation(
    theta: Stability,
    d: DimVector,
    max_box: int = DEFAULT_MAX_BOX,
) -> Stability:
    """Construct a generic deformation of theta for an indivisible d.

    Finds a covector eta with eta(d) = 0 that is nonzero on every proper
    nonzero e <= d with theta(e) = 0, picks a scale C exceeding eta's
    values on the vectors where theta is strictly signed, and returns
    C * theta + eta. The output is verified against
    is_generic_deformation before being returned.

    eta exists within sup-norm N = |d| B^(n-1), B = |d|^2 + 2: the covector
    |d| B^i - sum_j d_j B^j vanishes on d and, read in base B, on no proper
    nonzero e <= d; it is nonzero for n >= 2. On one vertex only eta = 0
    vanishes on d, and EtaSearchExhausted is raised.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    if not is_indivisible(d):
        raise PreconditionError(f"dimension vector {d} is divisible")
    if theta(d) != 0:
        raise PreconditionError("stability does not vanish on d; normalize it first")
    check_box(d, max_box)
    s = d.coords
    # the zero cell and d weigh 0 under theta; the other critical cells become DimVectors
    cells = islice(zip(sub_box(s), _cell_weights(theta.weights, s)), 1, box_size(d) - 1)
    bound = sum(s) * (sum(s) ** 2 + 2) ** (len(d) - 1)
    eta = _search_eta(d, [DimVector(e) for e, te in cells if te == 0], bound)
    # C must beat eta(e) where theta(e) < 0 and -eta(e) where theta(e) > 0
    weights = zip(_cell_weights(theta.weights, s), _cell_weights(eta.weights, s))
    scale = 1 + max([0] + [ee if te < 0 else -ee for te, ee in weights if te])
    theta_prime = scale * theta + eta
    verdict = is_generic_deformation(theta, theta_prime, d, max_box)
    if not verdict.passed:
        raise InternalCheckError(
            f"constructed deformation {theta_prime.weights} failed verification: {verdict}"
        )
    return theta_prime
