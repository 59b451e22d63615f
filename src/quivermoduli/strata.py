"""Decomposition types, local quivers and smallness certification.

A point of the semistable moduli space is a direct sum of pairwise
non-isomorphic stables with multiplicities; its decomposition type
records the summand dimension vectors and multiplicities. Each type has
a local quiver whose nilpotent semistable moduli space models the fibre
of the desingularization over the stratum, and the certification below
verifies, type by type, that the fibre-dimension bound stays within half
the stratum codimension bound, strictly so away from the dense stratum.
Once the two hypotheses of the certification hold this always succeeds,
so the verdict is decided by the hypotheses; the per-type bounds are
still computed and checked.

Every bound is a function of the form chi(p, p') on the parts of a type.
One walk over the types reads chi from a single table, filled on demand
with the pairs of parts that occur; the public per-type bounds build such
a table for their one type and run the same helpers.

All bounds are exact half-integers (Fractions with denominator 1 or 2).
"""

from __future__ import annotations

import operator
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

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

# chi(p, p') for dimension vectors p, p' of one quiver, as _euler_table gives it
_EulerTable = Callable[[DimVector, DimVector], int]


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
            mult = operator.index(mult)
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

    The walk runs on coordinate tuples and builds a LunaType only for the
    types it emits; the same walk in DimVector arithmetic is the test
    oracle in tests/strata_oracle.py.
    """
    q._check(d)
    if d.is_zero:
        raise ValueError("zero dimension vector")
    tnorm = normalize_stability(theta, d)
    check_box(d, max_box)
    candidates = [e for e in box_iter(d) if not e.is_zero and tnorm(e) == 0]
    candidates.sort(key=lambda e: e.coords, reverse=True)
    coords = [e.coords for e in candidates]
    out: list[LunaType] = []

    # chosen holds (candidate index, multiplicity) pairs
    def extend(idx: int, remaining: tuple[int, ...], chosen: tuple) -> None:
        if not any(remaining):
            out.append(LunaType(tuple((candidates[i], m) for i, m in chosen)))
            return
        if idx == len(coords):
            return
        part = coords[idx]
        if all(map(operator.le, part, remaining)):
            top = min(r // p for r, p in zip(remaining, part) if p)
            for mult in range(top, 0, -1):
                rest = tuple(r - mult * p for r, p in zip(remaining, part))
                extend(idx + 1, rest, chosen + ((idx, mult),))
        extend(idx + 1, remaining, chosen)

    extend(0, d.coords, ())
    return out


def _euler_table(q: Quiver) -> _EulerTable:
    """The form chi(p, p') of q, each pair computed on first use and kept.

    One table serves one walk over decomposition types, so it holds the
    Gram table of exactly the parts that occur there; nothing is computed
    eagerly over all candidate pairs.
    """
    return cache(q.euler_form)


def _local_quiver(chi: _EulerTable, xi: LunaType) -> tuple[Quiver, DimVector]:
    parts = [p for p, _ in xi.parts]
    matrix = []
    for k, pk in enumerate(parts):
        row = []
        for l, pl in enumerate(parts):
            count = (1 if k == l else 0) - chi(pk, pl)
            if count < 0:
                raise NegativeArrowCountError(k, l, count)
            row.append(count)
        matrix.append(tuple(row))
    vertices = tuple(f"u{k + 1}" for k in range(len(parts)))
    return Quiver(vertices, tuple(matrix)), DimVector(tuple(m for _, m in xi.parts))


def _local_stability(xi: LunaType, theta_prime: Stability) -> Stability:
    return Stability(tuple(theta_prime(p) for p, _ in xi.parts))


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
    lq, ld = _local_quiver(_euler_table(q), xi)
    return lq, ld, _local_stability(xi, theta_prime)


def nullcone_dim_bound(q: Quiver, d: DimVector) -> Fraction:
    """Upper bound for dim(nullcone) - dim(base-change group), q symmetric.

    Equals -form(d,d)/2 + sum_i form(i,i) d_i / 2 - total(d).
    """
    if not q.is_symmetric:
        raise PreconditionError("quiver is not symmetric")
    q._check(d)
    loop_term = sum((1 - q.arrows[i][i]) * d[i] for i in range(q.n))
    return -HALF * q.euler_form(d, d) + HALF * loop_term - d.total


def _fiber_bound(
    chi: _EulerTable, d: DimVector, xi: LunaType, local: Quiver, local_dim: DimVector
) -> Fraction:
    # the direct formula reads chi(d, d) as one table entry, while the
    # local quiver's form expands it over the parts: an independent check
    if not local.is_symmetric:
        raise PreconditionError("local quiver is not symmetric")
    self_terms = sum(chi(p, p) * m for p, m in xi.parts)
    direct = -HALF * chi(d, d) + HALF * self_terms - xi.summand_count + 1
    if direct != nullcone_dim_bound(local, local_dim) + 1:
        raise InternalCheckError("fibre bound disagrees with the local-quiver bound")
    return direct


def fiber_dim_bound(q: Quiver, xi: LunaType) -> Fraction:
    """Upper bound for the fibre dimension over a stratum of this type.

    Requires the local quiver to exist (no negative arrow counts) and to
    be symmetric. The direct formula is cross-checked against the
    nilpotent-moduli bound evaluated on the local quiver itself; the two
    must agree exactly.
    """
    chi = _euler_table(q)
    return _fiber_bound(chi, xi.total(), xi, *_local_quiver(chi, xi))


def _require_total(d: DimVector, xi: LunaType) -> None:
    if xi.total() != d:
        raise ValueError("decomposition type does not sum to d")


def _codim_bound(chi: _EulerTable, d: DimVector, xi: LunaType) -> int:
    return 1 - chi(d, d) - sum(1 - chi(p, p) for p, _ in xi.parts)


def codim_lower_bound(q: Quiver, d: DimVector, xi: LunaType) -> int:
    """Lower bound 1 - form(d,d) - sum_k (1 - form(d^k,d^k)) for the codimension."""
    _require_total(d, xi)
    return _codim_bound(_euler_table(q), d, xi)


def _margin(chi: _EulerTable, xi: LunaType, fiber: Fraction, codim: int) -> Fraction:
    part_term = sum((1 - chi(p, p)) * (m - 1) for p, m in xi.parts)
    margin = -HALF * part_term - HALF * (xi.summand_count - 1)
    if margin != fiber - HALF * codim:
        raise InternalCheckError("margin identity failed")
    return margin


def smallness_margin(q: Quiver, d: DimVector, xi: LunaType) -> Fraction:
    """Fibre bound minus half the codimension bound, in closed form.

    Nonpositive for every admissible type, zero exactly on the trivial
    one. The closed form is verified per call against
    fiber_dim_bound - codim_lower_bound / 2.
    """
    _require_total(d, xi)
    chi = _euler_table(q)
    fiber = _fiber_bound(chi, d, xi, *_local_quiver(chi, xi))
    return _margin(chi, xi, fiber, _codim_bound(chi, d, xi))


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
    chi: _EulerTable, d: DimVector, xi: LunaType, theta_prime: Stability
) -> StratumRecord:
    codim = _codim_bound(chi, d, xi)
    bad = [p for p, _ in xi.parts if chi(p, p) > 1]
    if bad:
        reason = (
            f"part {bad[0]} has negative expected stable moduli dimension "
            f"({1 - chi(bad[0], bad[0])})"
        )
        return StratumRecord(xi, True, reason, None, None, None, None, codim, None)
    try:
        lq, ld = _local_quiver(chi, xi)
    except NegativeArrowCountError as exc:
        return StratumRecord(xi, True, str(exc), None, None, None, None, codim, None)
    ls = _local_stability(xi, theta_prime)
    try:
        fiber = _fiber_bound(chi, d, xi, lq, ld)
    except PreconditionError as exc:
        return StratumRecord(xi, True, str(exc), lq, ld, ls, None, codim, None)
    margin = _margin(chi, xi, fiber, codim)
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

    The walk reads the form from one table filled on demand, so each pair
    of parts costs one euler_form call however many types share it, and
    each record builds its local quiver once. Every record still
    cross-checks its fibre bound against the nullcone bound of its local
    quiver, and its margin against fibre - codim / 2.
    """
    chi = _euler_table(q)
    return tuple(
        _stratum_record(chi, d, xi, theta_prime)
        for xi in luna_types(q, d, theta, max_box)
    )


@dataclass(frozen=True)
class SmallnessReport:
    """Outcome of a smallness certification.

    verdict is "Certified" or "NotApplicable" (a hypothesis failed, as
    reasons explain); the two hypotheses of certify_smallness decide it.
    Certified means every unfiltered type has margin <= 0 with equality
    exactly on the trivial type. The stable-nonemptiness assumption is
    echoed, never checked.
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

    Once both hypotheses hold, the verdict is Certified: every part of an
    unfiltered type has form(p, p) <= 1, so its margin is at most
    -(N - 1)/2 for N summands, which is negative on every nontrivial type.
    A margin that breaks this raises InternalCheckError.
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
    for rec in records:
        if not rec.filtered and (
            rec.margin > 0 or (rec.margin == 0 and not rec.luna_type.is_trivial)
        ):
            raise InternalCheckError(f"type {rec.luna_type} has margin {rec.margin}")
    return SmallnessReport(
        verdict="NotApplicable" if reasons else "Certified",
        reasons=tuple(reasons),
        records=records,
        assume_stable_nonempty=assume_stable_nonempty,
        kernel_symmetric=kernel_sym,
        deformation_ok=deformation_ok,
    )
