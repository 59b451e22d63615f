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

Every bound is a function of the Gram matrix of the form on the parts of
a type and of their multiplicities. One walk (_walk) lists the types for
both luna_types and stratum_records. It packs each candidate part and each
remainder into one int, a bit field per vertex with a guard bit above
each, so that comparing, subtracting and finding the lead coordinate are
integer operations. Along the way it extends each type's Gram key by one
row per part, read from a table of the form on pairs of candidates. The
records then compute the local data once per distinct key; the public
per-type bounds compute it for their one type and run the same helpers.
The bounds are computed doubled, in integers, and the half-integer ones
are returned as Fractions.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import islice

from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Quiver,
    Stability,
    _cell_weights,
    _integers,
    _Record,
    check_box,
    normalize_stability,
    sub_box,
    symmetric_on_kernel,
)
from .deform import is_generic_deformation
from .errors import InternalCheckError, NegativeArrowCountError, PreconditionError


class LunaType(_Record):
    """Multiset of (dimension vector, multiplicity) pairs.

    Canonical form: parts pairwise distinct, ordered by descending
    lexicographic coordinates; equal parts passed to the constructor are
    folded by adding multiplicities.
    """

    __slots__ = ("parts",)
    parts: tuple[tuple[DimVector, int], ...]

    def __init__(self, parts: tuple[tuple[DimVector, int], ...]):
        folded: dict[DimVector, int] = {}
        for part, mult in parts:
            (mult,) = _integers((mult,))
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


#: Most candidate parts luna_types walks; more raise PreconditionError.
#: The type count grows much faster than the candidates: levi_adjoint(10),
#: with 1,023 candidates, has Bell(10) = 115,975 types.
MAX_LUNA_CANDIDATES = 1000

#: Most decomposition types luna_types lists; more raise PreconditionError.
#: levi_adjoint(9) has 21,147 types; two vertices at theta = 0 with
#: d = (10, 11) have 94,664.
MAX_LUNA_TYPES = 25000


def _walk(q: Quiver, d: DimVector, theta: Stability, max_box: int) -> tuple[list, list, list]:
    """The one walk over the decomposition types of d, for luna_types and
    stratum_records: the candidate parts, one (type, key node, candidate
    indices) triple per type, and the links of the key trie.

    The candidates are the nonzero e <= d of normalized weight zero, in
    descending lexicographic order. Each candidate and each remainder is
    one packed int: a bit field per vertex, wide enough for d_i, vertex 0
    in the top field, and a guard bit G above each. Descending
    lexicographic order is then descending integer order, so the parts
    that can cover a remainder r are the candidates p <= r (a bisection)
    with r's lead coordinate, read from r.bit_length(); p <= r
    componentwise iff ((r | G) - p) & G == G, and r - m p subtracts field
    by field. A frame loops over those candidates past the last part chosen
    and recurses only on a chosen part, so the depth is at most the number
    of parts.

    A type's Gram key is the sequence of its parts' rows: for part p,
    (form(p, p_j), form(p_j, p)) for each part p_j before it, form(p, p)
    and p's multiplicity. The form of two candidates comes from a table
    of the call, filled on first use from shift covectors: form(p, r) =
    p . s(r), s(r)_i = r_i - arrows[i] . r. Each frame extends its key by
    one row, as a trie node whose link (parent node, pairs, form(p, p),
    multiplicity) is hashed once; node 0 is the empty key. Two types share
    a node exactly when their Gram matrices and multiplicities are equal.

    More than MAX_LUNA_CANDIDATES candidates raise PreconditionError
    before the walk; the walk raises it on meeting type number
    MAX_LUNA_TYPES + 1, so a refusal costs the walk of MAX_LUNA_TYPES types.
    """
    q._check(d)
    if d.is_zero:
        raise ValueError("zero dimension vector")
    tnorm = normalize_stability(theta, d)
    check_box(d, max_box)
    # a DimVector is built only for a candidate, not for every cell of the box
    cells = zip(sub_box(d.coords), _cell_weights(tnorm.weights, d.coords))
    coords = [c for c, w in islice(cells, 1, None) if w == 0]
    if len(coords) > MAX_LUNA_CANDIDATES:
        raise PreconditionError(
            f"{len(coords)} candidate parts for decomposition types, "
            f"more than the {MAX_LUNA_CANDIDATES} allowed"
        )
    coords.reverse()
    n = len(d)
    # the fields from the bottom one (the last vertex) up; lead[b] is the
    # vertex whose field holds bit b - 1, the top bit of an int of bit length b
    offsets, lead, guard = [0] * n, [None], 0
    for i in reversed(range(n)):
        width = d[i].bit_length()
        offsets[i] = len(lead) - 1
        lead += [i] * width + [None]
        guard |= 1 << (len(lead) - 2)
    packed = [sum(map(operator.lshift, c, offsets)) for c in coords]
    below = [-p for p in packed]  # ascending, for bisect
    # the candidates of lead vertex i end at stop[i]
    leads = [lead[p.bit_length()] for p in packed]
    stop = [bisect_right(leads, i) for i in range(n)]
    arrows = q.arrows
    shifts = [
        tuple(ci - sum(map(operator.mul, row, c)) for ci, row in zip(c, arrows)) for c in coords
    ]
    selfs = [sum(map(operator.mul, c, s)) for c, s in zip(coords, shifts)]
    # forms[i][j], j < i: (form(p_i, p_j), form(p_j, p_i)), filled on first use
    forms: list[list | None] = [None] * len(coords)
    candidates = list(map(DimVector, coords))
    pairs: dict[int, tuple[DimVector, int]] = {}  # one (part, multiplicity) object each
    span = max(d.coords) + 1
    links: list[tuple | None] = [None]
    nodes: dict[tuple, int] = {}
    out: list[tuple[LunaType, int, tuple[int, ...]]] = []

    def extend(start: int, r: int, parts: tuple, chosen: tuple, node: int) -> None:
        top = r | guard
        for idx in range(max(start, bisect_left(below, -r)), stop[lead[r.bit_length()]]):
            p = packed[idx]
            # (r - m p) | guard for m = 1, 2, ... while no guard bit is borrowed
            rest = top - p
            if rest & guard != guard:
                continue
            rests = []
            while rest & guard == guard:
                rests.append(rest ^ guard)
                rest -= p
            table = forms[idx]
            if table is None:
                table = forms[idx] = [None] * idx
            row = tuple(map(table.__getitem__, chosen))
            if None in row:
                c, s = coords[idx], shifts[idx]
                for j in chosen:
                    if table[j] is None:
                        table[j] = (
                            sum(map(operator.mul, c, shifts[j])),
                            sum(map(operator.mul, coords[j], s)),
                        )
                row = tuple(map(table.__getitem__, chosen))
            now = chosen + (idx,)
            for mult in range(len(rests), 0, -1):
                key = idx * span + mult
                pair = pairs.get(key) or pairs.setdefault(key, (candidates[idx], mult))
                link = (node, row, selfs[idx], mult)
                child = nodes.setdefault(link, len(links))
                if child == len(links):
                    links.append(link)
                rest = rests[mult - 1]
                if rest:
                    extend(idx + 1, rest, parts + (pair,), now, child)
                else:
                    if len(out) == MAX_LUNA_TYPES:
                        raise PreconditionError(
                            f"at least {MAX_LUNA_TYPES + 1} decomposition types, "
                            f"more than the {MAX_LUNA_TYPES} allowed"
                        )
                    # distinct candidates in descending order: canonical already
                    out.append((LunaType._trusted(parts + (pair,)), child, now))

    extend(0, sum(map(operator.lshift, d.coords, offsets)), (), (), 0)
    return candidates, out, links


def luna_types(
    q: Quiver, d: DimVector, theta: Stability, max_box: int = DEFAULT_MAX_BOX
) -> list[LunaType]:
    """All decomposition types of d with every part of the same slope as d.

    Enumerates multisets {(d^k, m_k)} with sum m_k d^k = d and normalized
    weight zero on every part. This is a conservative superset of the
    types of actually existing polystables: no nonemptiness filtering
    happens here. The trivial type ((d, 1)) comes first.

    The types are those of the packed-integer walk that stratum_records
    reads too (see _walk), in lexicographic order of their (candidate,
    -multiplicity) sequences; the recursion depth is at most the number
    of parts. The oracle is the DimVector walk in tests/strata_oracle.py.
    More than MAX_LUNA_CANDIDATES candidate parts or MAX_LUNA_TYPES types
    raise PreconditionError.
    """
    return [xi for xi, _, _ in _walk(q, d, theta, max_box)[1]]


def _gram(q: Quiver, xi: LunaType) -> list[list[int]]:
    """The form chi(d^k, d^l) on the parts of a type."""
    parts = [p for p, _ in xi.parts]
    return [[q.euler_form(p, r) for r in parts] for p in parts]


def _mults(xi: LunaType) -> tuple[int, ...]:
    return tuple(m for _, m in xi.parts)


def _local_quiver(gram, mults: tuple[int, ...]) -> tuple[Quiver, DimVector]:
    matrix = []
    for k, row in enumerate(gram):
        counts = tuple((k == l) - chi for l, chi in enumerate(row))
        if min(counts) < 0:
            l = next(l for l, count in enumerate(counts) if count < 0)
            raise NegativeArrowCountError(k, l, counts[l])
        matrix.append(counts)
    # int counts on distinct str names, none negative: what Quiver's checks ensure
    vertices = tuple(f"u{k + 1}" for k in range(len(matrix)))
    return Quiver._trusted(vertices, tuple(matrix)), DimVector._trusted(mults)


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
    lq, ld = _local_quiver(_gram(q, xi), _mults(xi))
    return lq, ld, Stability(tuple(theta_prime(p) for p, _ in xi.parts))


def _nullcone_twice(q: Quiver, d: DimVector) -> int:
    loop_term = sum((1 - row[i]) * c for i, (row, c) in enumerate(zip(q.arrows, d.coords)))
    return loop_term - q.euler_form(d, d) - 2 * sum(d.coords)


def nullcone_dim_bound(q: Quiver, d: DimVector) -> Fraction:
    """Upper bound for dim(nullcone) - dim(base-change group), q symmetric.

    Equals -form(d,d)/2 + sum_i form(i,i) d_i / 2 - total(d).
    """
    if not q.is_symmetric:
        raise PreconditionError("quiver is not symmetric")
    q._check(d)
    return Fraction(_nullcone_twice(q, d), 2)


def _codim_bound(dd: int, gram: list[list[int]]) -> int:
    return 1 - dd - sum(1 - row[k] for k, row in enumerate(gram))


def _fiber_and_margin(
    dd: int, gram: list[list[int]], codim: int, local: Quiver, local_dim: DimVector
) -> tuple[int, int]:
    # twice the fibre bound and twice the margin; the direct fibre formula
    # reads chi(d, d) as one value, the local quiver's form expands it
    if not local.is_symmetric:
        raise PreconditionError("local quiver is not symmetric")
    selfs, mults = [row[k] for k, row in enumerate(gram)], local_dim.coords
    count = sum(mults)
    fiber = sum(map(operator.mul, selfs, mults)) - dd - 2 * count + 2
    if fiber != _nullcone_twice(local, local_dim) + 2:
        raise InternalCheckError("fibre bound disagrees with the local-quiver bound")
    margin = 1 - count - sum((1 - c) * (m - 1) for c, m in zip(selfs, mults))
    if margin != fiber - codim:
        raise InternalCheckError("margin identity failed")
    return fiber, margin


def fiber_dim_bound(q: Quiver, xi: LunaType) -> Fraction:
    """Upper bound for the fibre dimension over a stratum of this type.

    Requires the local quiver to exist (no negative arrow counts) and to
    be symmetric. The direct formula is cross-checked against the
    nilpotent-moduli bound evaluated on the local quiver itself; the two
    must agree exactly.
    """
    return _bounds(q, xi.total(), xi)[0]


def _require_total(d: DimVector, xi: LunaType) -> None:
    if xi.total() != d:
        raise ValueError("decomposition type does not sum to d")


def codim_lower_bound(q: Quiver, d: DimVector, xi: LunaType) -> int:
    """Lower bound 1 - form(d,d) - sum_k (1 - form(d^k,d^k)) for the codimension."""
    _require_total(d, xi)
    return _codim_bound(q.euler_form(d, d), _gram(q, xi))


def smallness_margin(q: Quiver, d: DimVector, xi: LunaType) -> Fraction:
    """Fibre bound minus half the codimension bound, in closed form.

    Nonpositive for every admissible type, zero exactly on the trivial
    one. The closed form is verified per call against
    fiber_dim_bound - codim_lower_bound / 2.
    """
    _require_total(d, xi)
    return _bounds(q, d, xi)[1]


def _bounds(q: Quiver, d: DimVector, xi: LunaType) -> tuple[Fraction, Fraction]:
    dd, gram = q.euler_form(d, d), _gram(q, xi)
    codim = _codim_bound(dd, gram)
    fiber, margin = _fiber_and_margin(dd, gram, codim, *_local_quiver(gram, _mults(xi)))
    return Fraction(fiber, 2), Fraction(margin, 2)


class StratumRecord(_Record):
    """Per-type row of the strata table and of a smallness report."""

    __slots__ = (
        "luna_type", "filtered", "reason", "local_quiver", "local_dim", "local_stability",
        "fiber_bound", "codim_bound", "margin",
    )
    luna_type: LunaType
    filtered: bool
    reason: str | None
    local_quiver: Quiver | None
    local_dim: DimVector | None
    local_stability: Stability | None
    fiber_bound: Fraction | None
    codim_bound: int
    margin: Fraction | None


def _local_data(dd: int, links: list, node: int) -> tuple:
    """(codim, first part of negative expected dimension, its dimension, reason,
    local quiver, local dimension vector, fibre bound, margin): what the types
    of one key node of _walk share."""
    gram: list[list[int]] = []
    mults: list[int] = []
    path = []
    while node:
        node, row, diag, mult = links[node]
        path.append((row, diag, mult))
    for row, diag, mult in reversed(path):
        for line, (_, old_new) in zip(gram, row):
            line.append(old_new)
        gram.append([new_old for new_old, _ in row] + [diag])
        mults.append(mult)
    codim = _codim_bound(dd, gram)
    bad = next((k for k, row in enumerate(gram) if row[k] > 1), None)
    lq = ld = fiber = margin = reason = None
    if bad is None:
        try:  # a negative arrow count or a non-symmetric local quiver
            lq, ld = _local_quiver(gram, tuple(mults))
            fiber, margin = (Fraction(x, 2) for x in _fiber_and_margin(dd, gram, codim, lq, ld))
        except PreconditionError as exc:
            reason = str(exc)
    return codim, bad, None if bad is None else 1 - gram[bad][bad], reason, lq, ld, fiber, margin


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

    The types and Gram keys come from the walk of luna_types (see _walk).
    The local data depends only on the key, so each local quiver is built,
    tested for symmetry and cross-checked once per key and shared by its
    records: its fibre bound against its nullcone bound, its margin against
    fibre - codim / 2. Every object is built from these checked fields by
    _Record._trusted, without its constructor's checks.
    """
    candidates, types, links = _walk(q, d, theta, max_box)
    dd = q.euler_form(d, d)
    weights = list(map(theta_prime, candidates))
    shared: list[tuple | None] = [None] * len(links)
    records, record = [], StratumRecord._trusted
    for xi, node, chosen in types:
        data = shared[node]
        if data is None:
            data = shared[node] = _local_data(dd, links, node)
        codim, bad, bad_dim, reason, lq, ld, fiber, margin = data
        if bad is not None:
            reason = (
                f"part {xi.parts[bad][0]} has negative expected stable moduli dimension "
                f"({bad_dim})"
            )
        ls = None if lq is None else Stability._trusted(tuple(map(weights.__getitem__, chosen)))
        records.append(record(xi, reason is not None, reason, lq, ld, ls, fiber, codim, margin))
    return tuple(records)


class SmallnessReport(_Record):
    """Outcome of a smallness certification.

    verdict is "Certified" or "NotApplicable" (a hypothesis failed, as
    reasons explain); the two hypotheses of certify_smallness decide it.
    Certified means every unfiltered type has margin <= 0 with equality
    exactly on the trivial type. The stable-nonemptiness assumption is
    echoed, never checked.
    """

    __slots__ = (
        "verdict", "reasons", "records", "assume_stable_nonempty", "kernel_symmetric",
        "deformation_ok",
    )
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
