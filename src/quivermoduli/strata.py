"""Decomposition types, local quivers and smallness certification.

A point of the semistable moduli space is a direct sum of pairwise
non-isomorphic stables with multiplicities; its decomposition type
records the summand dimension vectors and multiplicities. Each type has
a local quiver whose nilpotent semistable moduli space models the fibre
of the desingularization over the stratum, and the certification below
verifies, type by type, that the fibre-dimension bound stays within half
the stratum codimension bound, strictly so away from the dense stratum.

All bounds are exact half-integers (Fractions with denominator 1 or 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Quiver,
    Stability,
    box_iter,
    check_box,
    normalize_stability,
    symmetric_on_kernel,
)
from .deform import is_generic_deformation
from .errors import InternalCheckError, NegativeArrowCountError, PreconditionError

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class LunaType:
    """Multiset of (dimension vector, multiplicity) pairs.

    Canonical form: parts pairwise distinct, ordered by descending
    lexicographic coordinates; equal parts passed to the constructor are
    folded by adding multiplicities.
    """

    parts: tuple[tuple[DimVector, int], ...]

    def __post_init__(self):
        folded: dict[DimVector, int] = {}
        for part, mult in self.parts:
            mult = int(mult)
            if mult < 1:
                raise ValueError("multiplicities must be positive")
            if part.is_zero:
                raise ValueError("zero part in a decomposition type")
            folded[part] = folded.get(part, 0) + mult
        ordered = tuple(
            (part, folded[part])
            for part in sorted(folded, key=lambda p: p.coords, reverse=True)
        )
        if not ordered:
            raise ValueError("decomposition type needs at least one part")
        object.__setattr__(self, "parts", ordered)

    @property
    def is_trivial(self) -> bool:
        return len(self.parts) == 1 and self.parts[0][1] == 1

    @property
    def summand_count(self) -> int:
        return sum(m for _, m in self.parts)

    def total(self) -> DimVector:
        out = DimVector((0,) * len(self.parts[0][0]))
        for part, mult in self.parts:
            out = out + mult * part
        return out

    def __str__(self) -> str:
        return " + ".join(
            f"{mult}*{part}" if mult > 1 else str(part) for part, mult in self.parts
        )


def luna_types(
    q: Quiver, d: DimVector, theta: Stability, max_box: int = DEFAULT_MAX_BOX
) -> list[LunaType]:
    """All decomposition types of d with every part of the same slope as d.

    Enumerates multisets {(d^k, m_k)} with sum m_k d^k = d and normalized
    weight zero on every part. This is a conservative superset of the
    types of actually existing polystables: no nonemptiness filtering
    happens here. The trivial type ((d, 1)) comes first.
    """
    q._check(d)
    if d.is_zero:
        raise ValueError("zero dimension vector")
    tnorm = normalize_stability(theta, d)
    check_box(d, max_box)
    candidates = [e for e in box_iter(d) if not e.is_zero and tnorm(e) == 0]
    candidates.sort(key=lambda e: e.coords, reverse=True)
    out: list[LunaType] = []

    def extend(idx: int, remaining: DimVector, chosen: tuple) -> None:
        if remaining.is_zero:
            out.append(LunaType(chosen))
            return
        if idx == len(candidates):
            return
        part = candidates[idx]
        if part.leq(remaining):
            top = min(
                remaining[i] // part[i] for i in range(len(part)) if part[i] > 0
            )
            for mult in range(top, 0, -1):
                extend(idx + 1, remaining - mult * part, chosen + ((part, mult),))
        extend(idx + 1, remaining, chosen)

    extend(0, d, ())
    return out


def _local_arrow_matrix(q: Quiver, xi: LunaType) -> list[list[int]]:
    parts = [p for p, _ in xi.parts]
    s = len(parts)
    matrix = []
    for k in range(s):
        row = []
        for l in range(s):
            count = (1 if k == l else 0) - q.euler_form(parts[k], parts[l])
            if count < 0:
                raise NegativeArrowCountError(k, l, count)
            row.append(count)
        matrix.append(row)
    return matrix


def local_quiver(
    q: Quiver, xi: LunaType, theta_prime: Stability
) -> tuple[Quiver, DimVector, Stability]:
    """Local quiver of a decomposition type with its induced stability.

    One vertex per distinct part, delta_kl - form(d^k, d^l) arrows from
    vertex k to vertex l, dimension vector the multiplicities and
    stability evaluating theta_prime on the parts. A negative arrow count
    raises NegativeArrowCountError: no tuple of pairwise non-isomorphic
    same-slope stables can realize such a type.
    """
    matrix = _local_arrow_matrix(q, xi)
    s = len(xi.parts)
    vertices = tuple(f"u{k + 1}" for k in range(s))
    dim = DimVector(tuple(m for _, m in xi.parts))
    stab = Stability(tuple(theta_prime(p) for p, _ in xi.parts))
    return Quiver(vertices, tuple(tuple(row) for row in matrix)), dim, stab


def nullcone_dim_bound(q: Quiver, d: DimVector) -> Fraction:
    """Upper bound for dim(nullcone) - dim(base-change group), q symmetric.

    Equals -form(d,d)/2 + sum_i form(i,i) d_i / 2 - total(d).
    """
    if not q.is_symmetric:
        raise PreconditionError("quiver is not symmetric")
    q._check(d)
    loop_term = sum((1 - q.arrows[i][i]) * d[i] for i in range(q.n))
    return -HALF * q.euler_form(d, d) + HALF * loop_term - d.total


def _fiber_bound_value(q: Quiver, xi: LunaType) -> Fraction:
    d = xi.total()
    self_terms = sum(q.euler_form(p, p) * m for p, m in xi.parts)
    return -HALF * q.euler_form(d, d) + HALF * self_terms - xi.summand_count + 1


def fiber_dim_bound(q: Quiver, xi: LunaType) -> Fraction:
    """Upper bound for the fibre dimension over a stratum of this type.

    Requires the local quiver to exist (no negative arrow counts) and to
    be symmetric. The direct formula is cross-checked against the
    nilpotent-moduli bound evaluated on the local quiver itself; the two
    must agree exactly.
    """
    matrix = _local_arrow_matrix(q, xi)
    s = len(matrix)
    if any(matrix[k][l] != matrix[l][k] for k in range(s) for l in range(s)):
        raise PreconditionError("local quiver is not symmetric")
    direct = _fiber_bound_value(q, xi)
    local = Quiver.from_matrix(matrix)
    local_dim = DimVector(tuple(m for _, m in xi.parts))
    corollary = nullcone_dim_bound(local, local_dim) + 1
    if direct != corollary:
        raise InternalCheckError("fibre bound disagrees with the local-quiver bound")
    return direct


def codim_lower_bound(q: Quiver, d: DimVector, xi: LunaType) -> int:
    """Lower bound 1 - form(d,d) - sum_k (1 - form(d^k,d^k)) for the codimension."""
    if xi.total() != d:
        raise ValueError("decomposition type does not sum to d")
    return (
        1
        - q.euler_form(d, d)
        - sum(1 - q.euler_form(p, p) for p, _ in xi.parts)
    )


def _margin_value(q: Quiver, xi: LunaType) -> Fraction:
    part_term = sum(
        (1 - q.euler_form(p, p)) * (m - 1) for p, m in xi.parts
    )
    return -HALF * part_term - HALF * (xi.summand_count - 1)


def smallness_margin(q: Quiver, d: DimVector, xi: LunaType) -> Fraction:
    """Fibre bound minus half the codimension bound, in closed form.

    Nonpositive for every admissible type, zero exactly on the trivial
    one. The closed form is verified per call against
    fiber_dim_bound - codim_lower_bound / 2.
    """
    margin = _margin_value(q, xi)
    fiber = fiber_dim_bound(q, xi)
    codim = codim_lower_bound(q, d, xi)
    if margin != fiber - HALF * codim:
        raise InternalCheckError("margin identity failed")
    return margin


@dataclass(frozen=True)
class StratumRecord:
    """Per-type row of the strata table and of a smallness report."""

    luna_type: LunaType
    filtered: bool
    reason: str | None
    local_quiver: Quiver | None
    local_dim: DimVector | None
    local_stability: Stability | None
    fiber_bound: Fraction | None
    codim_bound: int
    margin: Fraction | None


def _stratum_record(
    q: Quiver, d: DimVector, xi: LunaType, theta_prime: Stability
) -> StratumRecord:
    codim = codim_lower_bound(q, d, xi)
    bad = [p for p, _ in xi.parts if q.euler_form(p, p) > 1]
    if bad:
        reason = (
            f"part {bad[0]} has negative expected stable moduli dimension "
            f"({1 - q.euler_form(bad[0], bad[0])})"
        )
        return StratumRecord(xi, True, reason, None, None, None, None, codim, None)
    try:
        lq, ld, ls = local_quiver(q, xi, theta_prime)
    except NegativeArrowCountError as exc:
        return StratumRecord(xi, True, str(exc), None, None, None, None, codim, None)
    try:
        fiber = fiber_dim_bound(q, xi)
    except PreconditionError as exc:
        return StratumRecord(xi, True, str(exc), lq, ld, ls, None, codim, None)
    margin = smallness_margin(q, d, xi)
    return StratumRecord(xi, False, None, lq, ld, ls, fiber, codim, margin)


def stratum_records(
    q: Quiver,
    d: DimVector,
    theta: Stability,
    theta_prime: Stability,
    max_box: int = DEFAULT_MAX_BOX,
) -> tuple[StratumRecord, ...]:
    """One record per decomposition type of d, in luna_types order.

    Every type gets its codimension bound. A type is filtered, with the
    reason recorded, when a part has negative expected stable moduli
    dimension, when its local quiver would need a negative arrow count,
    or when its local quiver is not symmetric (the local data is kept).
    Every other type gets its local quiver, fibre bound and margin. No
    hypothesis of certify_smallness is checked here.
    """
    return tuple(
        _stratum_record(q, d, xi, theta_prime) for xi in luna_types(q, d, theta, max_box)
    )


@dataclass(frozen=True)
class SmallnessReport:
    """Outcome of a smallness certification.

    verdict is "Certified", "NotCertified" or "NotApplicable" (hypothesis
    failed); reasons explain the latter two. Certified means every
    unfiltered type has margin <= 0 with equality exactly on the trivial
    type. The stable-nonemptiness assumption is echoed, never checked.
    """

    verdict: str
    reasons: tuple[str, ...]
    records: tuple[StratumRecord, ...]
    assume_stable_nonempty: bool
    kernel_symmetric: bool
    deformation_ok: bool

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"


def certify_smallness(
    q: Quiver,
    d: DimVector,
    theta: Stability,
    theta_prime: Stability,
    assume_stable_nonempty: bool = False,
    max_box: int = DEFAULT_MAX_BOX,
) -> SmallnessReport:
    """Certify the desingularization attached to a generic deformation.

    Hypotheses checked: the deformed stability passes the generic
    deformation test for the normalized stability, and the form is
    symmetric on the kernel of the normalized stability. If either fails
    the verdict is NotApplicable. Otherwise the records come from
    stratum_records; its non-symmetric filter never fires here, because
    every part lies in the kernel where the form is symmetric. The
    enumeration is a superset of the actually nonempty strata, so a
    Certified verdict is sound.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    tnorm = normalize_stability(theta, d)
    deformation_ok = is_generic_deformation(tnorm, theta_prime, d, max_box).passed
    kernel_sym = symmetric_on_kernel(q, tnorm)
    reasons: list[str] = []
    if not deformation_ok:
        reasons.append("deformed stability is not a generic deformation")
    if not kernel_sym:
        reasons.append("form is not symmetric on the kernel of the stability")
    records = () if reasons else stratum_records(q, d, theta, theta_prime, max_box)
    offenders = [
        f"type {rec.luna_type} has margin {rec.margin}"
        for rec in records
        if not rec.filtered
        and (rec.margin > 0 or (rec.margin == 0 and not rec.luna_type.is_trivial))
    ]
    if reasons:
        verdict = "NotApplicable"
    elif offenders:
        verdict = "NotCertified"
    else:
        verdict = "Certified"
    return SmallnessReport(
        verdict=verdict,
        reasons=tuple(reasons + offenders),
        records=records,
        assume_stable_nonempty=assume_stable_nonempty,
        kernel_symmetric=kernel_sym,
        deformation_ok=deformation_ok,
    )
