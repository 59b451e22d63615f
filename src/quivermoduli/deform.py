"""Generic deformations of stabilities.

A deformed stability must keep every strictly destabilizing subvector
strictly destabilizing, must not produce new nonpositive values on
subvectors, and must separate d from all its proper subvectors
(coprimality). Such a deformation always exists for indivisible d and is
constructed here by an explicit search for a separating covector eta,
which solves eta(d) = 0 for one coordinate instead of enumerating it.
Every constructed deformation is verified by is_generic_deformation.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Stability,
    box_iter,
    check_box,
    is_indivisible,
)
from .errors import EtaSearchExhausted, InternalCheckError, PreconditionError

#: Default sup-norm bound for the separating-covector search.
DEFAULT_ETA_BOUND = 6


@dataclass(frozen=True)
class DeformationVerdict:
    """Outcome of a generic-deformation check with the offending vectors."""

    passed: bool
    violations: tuple[tuple[str, DimVector], ...]

    def __bool__(self) -> bool:
        return self.passed


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
    theta_prime(e) != 0.
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
    for e in box_iter(d):
        if e.is_zero or e == d:
            continue
        te = theta(e)
        tpe = theta_prime(e)
        if te < 0 and tpe >= 0:
            violations.append(("lost_negativity", e))
        if tpe <= 0 and te > 0:
            violations.append(("gained_nonpositivity", e))
        if tpe == target:
            violations.append(("coprimality_tie", e))
    return DeformationVerdict(not violations, tuple(violations))


def _coord_key(x: int) -> tuple[int, int]:
    # orders each coordinate 0 < 1 < -1 < 2 < -2 < ...
    return (abs(x), 0 if x >= 0 else 1)


def _search_eta(d: DimVector, critical: list[DimVector], max_norm: int) -> Stability:
    """First integer covector vanishing on d and nonzero on the critical set.

    Deterministic: increasing sup-norm, ties broken lexicographically with
    coordinates ordered 0 < 1 < -1 < 2 < -2 < ...; this keeps coefficients
    small and the output reproducible.

    Only the coordinates other than k, the last index with d_k != 0, are
    enumerated: eta(d) = 0 leaves x_k = -sum_{i<k} x_i d_i / d_k, kept when
    it is an integer with |x_k| <= the sup-norm. The coordinates after k
    meet d in zeros, and x_k is a function of the coordinates before it,
    so the candidates come in the order of the full enumeration. The
    enumeration itself is the test oracle in tests/deform_oracle.py.
    """
    coords = d.coords
    k = max(i for i, c in enumerate(coords) if c)
    head, dk = coords[:k], coords[k]
    vectors = [e.coords for e in critical]
    for bound in range(1, max_norm + 1):
        values = sorted(range(-bound, bound + 1), key=_coord_key)
        for others in product(values, repeat=len(coords) - 1):
            xk, rest = divmod(-sum(x * c for x, c in zip(others, head)), dk)
            if rest or abs(xk) > bound:
                continue
            eta = others[:k] + (xk,) + others[k:]
            if max(abs(x) for x in eta) != bound:
                continue
            if all(sum(x * c for x, c in zip(eta, e)) for e in vectors):
                return Stability(eta)
    raise EtaSearchExhausted(max_norm)


def generic_deformation(
    theta: Stability,
    d: DimVector,
    max_box: int = DEFAULT_MAX_BOX,
    max_eta_norm: int = DEFAULT_ETA_BOUND,
) -> Stability:
    """Construct a generic deformation of theta for an indivisible d.

    Finds a covector eta with eta(d) = 0 that is nonzero on every proper
    nonzero e <= d with theta(e) = 0, picks a scale C exceeding eta's
    values on the vectors where theta is strictly signed, and returns
    C * theta + eta. The output is verified against
    is_generic_deformation before being returned.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    if not is_indivisible(d):
        raise PreconditionError(f"dimension vector {d} is divisible")
    if theta(d) != 0:
        raise PreconditionError("stability does not vanish on d; normalize it first")
    check_box(d, max_box)
    cells = [(e, theta(e)) for e in box_iter(d) if not e.is_zero and e != d]
    eta = _search_eta(d, [e for e, te in cells if te == 0], max_eta_norm)
    # C must beat eta(e) where theta(e) < 0 and -eta(e) where theta(e) > 0
    scale = 1 + max([0] + [eta(e) if te < 0 else -eta(e) for e, te in cells if te])
    theta_prime = scale * theta + eta
    verdict = is_generic_deformation(theta, theta_prime, d, max_box)
    if not verdict.passed:
        raise InternalCheckError(
            f"constructed deformation {theta_prime} failed verification: {verdict.violations[:3]}"
        )
    return theta_prime
