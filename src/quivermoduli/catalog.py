"""Builders for the catalog of example families.

Each family returns the quiver, dimension vector, stability and (when
the family fixes one) a deformed stability. The families cover classical
quotients: determinantal varieties of square matrices, ordered point
configurations in projective space, adjoint quotients by Levi subgroups,
graded linear maps up to block base change, rank-one matrix varieties,
and the one-dimensional-vertices construction that makes any moduli
problem toric.
"""

from __future__ import annotations

import operator
from itertools import chain, repeat
from math import gcd
from typing import NamedTuple, Sequence

from .core import DimVector, Quiver, Stability, _Record, check_box
from .strata import LunaType, local_quiver


class QuiverSetup(NamedTuple):
    quiver: Quiver
    dim_vector: DimVector
    stability: Stability
    deformed: Stability | None


def determinantal(m: int, r: int, *, max_box: int | None = None) -> QuiverSetup:
    """Two vertices, m arrows each way; quotient = m x m matrices of rank <= r.

    Dimension vector (1, r), trivial stability, deformed stability
    (r, -1), valid for 1 <= r <= m. Like every builder here, it raises
    BoxGuardExceeded before building anything when the box of the
    dimension vector has more than max_box cells.
    """
    m, r = operator.index(m), operator.index(r)
    if not 1 <= r <= m:
        raise ValueError("determinantal needs 1 <= r <= m")
    check_box((1, r), max_box)
    quiver = Quiver(("i", "j"), ((0, m), (m, 0)))
    return QuiverSetup(
        quiver,
        DimVector((1, r)),
        Stability((0, 0)),
        Stability((r, -1)),
    )


def point_configurations(m: int, d: int, *, max_box: int | None = None) -> QuiverSetup:
    """Star quiver with m sources; quotient = ordered m-tuples of points in P^(d-1).

    Dimension vector (1, ..., 1, d), the symmetric stability
    d * sum(sources) - m * sink, and the deformed stability
    (d^2 + d, d^2, ..., d^2, -(m d + 1)) breaking the symmetry at the
    first source. Needs m >= 1 and d >= 2.
    """
    m, d = operator.index(m), operator.index(d)
    if m < 1 or d < 2:
        raise ValueError("point_configurations needs m >= 1 and d >= 2")
    check_box(chain(repeat(1, m), (d,)), max_box)
    vertices = tuple(f"i{k + 1}" for k in range(m)) + ("j",)
    arrows = [[0] * (m + 1) for _ in range(m + 1)]
    for k in range(m):
        arrows[k][m] = 1
    theta = Stability((d,) * m + (-m,))
    deformed = Stability((d * d + d,) + (d * d,) * (m - 1) + (-(m * d + 1),))
    return QuiverSetup(
        Quiver(vertices, tuple(tuple(row) for row in arrows)),
        DimVector((1,) * m + (d,)),
        theta,
        deformed,
    )


def levi_adjoint(*dims: int, max_box: int | None = None) -> QuiverSetup:
    """Complete quiver with loops; quotient of square matrices by a Levi.

    A single argument l means l vertices with the all-ones dimension
    vector (the torus case), and comes with the deformed stability
    (l - 1, -1, ..., -1). Several arguments are taken as the block sizes
    themselves; no deformed stability is attached then.
    """
    if len(dims) == 1:
        l = operator.index(dims[0])
        if l < 1:
            raise ValueError("levi_adjoint needs at least one vertex")
        check_box(repeat(1, l), max_box)
        coords = (1,) * l
        deformed = Stability((l - 1,) + (-1,) * (l - 1)) if l > 1 else Stability((0,))
    else:
        coords = tuple(map(operator.index, dims))
        if not coords or any(c < 1 for c in coords):
            raise ValueError("block sizes must be positive")
        check_box(coords, max_box)
        l = len(coords)
        deformed = None
    vertices = tuple(f"i{p + 1}" for p in range(l))
    arrows = tuple(tuple(1 for _ in range(l)) for _ in range(l))
    return QuiverSetup(
        Quiver(vertices, arrows),
        DimVector(coords),
        Stability((0,) * l),
        deformed,
    )


def complete_bipartite(
    source_dims: Sequence[int], sink_dims: Sequence[int], *, max_box: int | None = None
) -> QuiverSetup:
    """Complete bipartite quiver; graded linear maps up to block base change.

    Stability gives every source the total sink dimension and every sink
    minus the total source dimension, which vanishes on the dimension
    vector. No preferred deformed stability.
    """
    vs = tuple(map(operator.index, source_dims))
    ws = tuple(map(operator.index, sink_dims))
    if not vs or not ws or any(c < 1 for c in vs + ws):
        raise ValueError("block dimensions must be positive")
    check_box(vs + ws, max_box)
    k, l = len(vs), len(ws)
    vertices = tuple(f"i{p + 1}" for p in range(k)) + tuple(f"j{qq + 1}" for qq in range(l))
    arrows = [[0] * (k + l) for _ in range(k + l)]
    for p in range(k):
        for qq in range(l):
            arrows[p][k + qq] = 1
    dim_v = sum(vs)
    dim_w = sum(ws)
    theta = Stability((dim_w,) * k + (-dim_v,) * l)
    return QuiverSetup(
        Quiver(vertices, tuple(tuple(row) for row in arrows)),
        DimVector(vs + ws),
        theta,
        None,
    )


def kronecker_general(m: int, n: int, *, max_box: int | None = None) -> QuiverSetup:
    """Two vertices, m arrows one way and n the other, d = (1, 1).

    The quotient is the variety of m x n matrices of rank at most one;
    trivial stability with deformed stability (1, -1).
    """
    m, n = operator.index(m), operator.index(n)
    if m < 0 or n < 0:
        raise ValueError("arrow counts must be nonnegative")
    check_box((1, 1), max_box)
    quiver = Quiver(("i", "j"), ((0, m), (n, 0)))
    return QuiverSetup(quiver, DimVector((1, 1)), Stability((0, 0)), Stability((1, -1)))


def _bipartite_from_params(*params: int, max_box: int | None = None) -> QuiverSetup:
    params = [operator.index(x) for x in params]
    if len(params) < 2:
        raise ValueError("bipartite needs k,l followed by k + l block sizes")
    k, l = params[0], params[1]
    if len(params) != 2 + k + l:
        raise ValueError(f"bipartite with k={k}, l={l} needs exactly {k + l} block sizes")
    return complete_bipartite(params[2 : 2 + k], params[2 + k :], max_box=max_box)


#: CLI-addressable families: name -> (builder called with the integer
#: parameters as positional arguments, parameter doc).
FAMILIES = {
    "determinantal": (determinantal, "m,r with 1 <= r <= m"),
    "points": (point_configurations, "m,d with m >= 1 and d >= 2"),
    "levi_adjoint": (levi_adjoint, "l (torus case, all-ones), or block sizes d1,...,dl"),
    "bipartite": (
        _bipartite_from_params,
        "k,l,v1,...,vk,w1,...,wl (block counts then block sizes)",
    ),
    "kronecker_general": (kronecker_general, "m,n (arrow counts in the two directions)"),
}


def build_example(
    family: str, params: Sequence[int], max_box: int | None = None
) -> QuiverSetup:
    """Build a catalog example from its family name and integer parameters.

    The one-dimensional-vertices construction is not an integer-list
    family; apply abelianized_quiver to any setup (the command line
    exposes this as a flag). A parameter that is not an integer raises
    ValueError saying so; a wrong number of parameters raises ValueError
    naming the family's parameters. With max_box, an example whose box
    has more cells raises BoxGuardExceeded before its quiver is built.
    """
    builder, doc = _family(family)
    for p in params:
        try:
            operator.index(p)
        except TypeError:
            raise ValueError(f"example {family} parameters must be integers, got {p!r}") from None
    try:
        return builder(*params, max_box=max_box)
    except TypeError:  # with integer parameters, only their number can be wrong
        raise ValueError(f"example {family} takes {doc}") from None


def example_from_spec(
    spec: str, max_box: int | None = None
) -> tuple[str, list[int], QuiverSetup]:
    """Build a catalog example from a ``family:p1,p2,...`` spec.

    Returns the family name, its parameters and the setup. A field that is
    not an integer, an empty one included, raises ValueError naming the
    family's parameters, as a wrong number of them does. max_box is passed
    on to build_example.
    """
    family, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError("example must look like family:p1,p2,...")
    family = family.strip()
    _, doc = _family(family)
    try:
        params = [int(x) for x in rest.split(",")] if rest.strip() else []
    except ValueError:
        raise ValueError(f"example {family} takes {doc}") from None
    return family, params, build_example(family, params, max_box)


def _family(family: str):
    if family not in FAMILIES:
        known = ", ".join(sorted(FAMILIES))
        raise ValueError(f"unknown example family {family!r}; known families: {known}")
    return FAMILIES[family]


def abelianized_quiver(
    q: Quiver, d: DimVector, theta: Stability, *, max_box: int | None = None
) -> tuple[Quiver, DimVector, Stability]:
    """Split every vertex into d_i copies, replicating arrows between copies.

    The new quiver has vertices i_k for k = 1..d_i, one arrow i_k -> j_l
    for every arrow i -> j and every pair of copies, the all-ones
    dimension vector and the stability repeating theta(i) on every copy.
    Moduli spaces for the result are toric. Raises BoxGuardExceeded before
    building anything when the split box (2^|d| cells) exceeds max_box.
    """
    q._check(d)
    if d.is_zero:
        raise ValueError("zero dimension vector")
    check_box(repeat(1, d.total), max_box)
    index: list[tuple[int, int]] = []
    names: list[str] = []
    for i in range(q.n):
        for k in range(d[i]):
            index.append((i, k))
            names.append(f"{q.vertices[i]}_{k + 1}")
    size = len(index)
    arrows = [[0] * size for _ in range(size)]
    for a, (i, _) in enumerate(index):
        for b, (j, _) in enumerate(index):
            arrows[a][b] = q.arrows[i][j]
    weights = tuple(theta[i] for i, _ in index)
    return (
        Quiver(tuple(names), tuple(tuple(row) for row in arrows)),
        DimVector((1,) * size),
        Stability(weights),
    )


# ---------------------------------------------------------------------------
# point configurations: local data of a decomposition type


class MarkedPartition(_Record):
    """Partition of a positive integer with one distinguished part."""

    __slots__ = ("parts", "marked")
    parts: tuple[int, ...]
    marked: int

    def __init__(self, parts: tuple[int, ...], marked: int):
        parts = tuple(map(operator.index, parts))
        if not parts or any(p < 1 for p in parts):
            raise ValueError("parts must be positive integers")
        marked = operator.index(marked)
        if not 0 <= marked < len(parts):
            raise ValueError("marked index out of range")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "marked", marked)

    @property
    def total(self) -> int:
        return sum(self.parts)


def _point_config_parts(m: int, d: int, lam: MarkedPartition) -> list[DimVector]:
    g = gcd(d, m)
    if lam.total != g:
        raise ValueError(f"marked partition must sum to gcd(d, m) = {g}")
    e = d // g
    n = m // g
    # consecutive blocks of sources, the marked part first
    order = [lam.marked] + [i for i in range(len(lam.parts)) if i != lam.marked]
    parts: list[DimVector] = []
    start = 0
    for idx in order:
        lam_k = lam.parts[idx]
        width = n * lam_k
        coords = [0] * (m + 1)
        for src in range(start, start + width):
            coords[src] = 1
        coords[m] = e * lam_k
        parts.append(DimVector(tuple(coords)))
        start += width
    return parts


def point_config_local_data(
    m: int, d: int, lam: MarkedPartition
) -> tuple[Quiver, DimVector, Stability]:
    """Local quiver of the point-configuration stratum of a marked partition.

    The decomposition type groups the sources into consecutive blocks of
    sizes (m / g) * part, with the marked part first (it contains the
    distinguished source that the deformed stability favors), and gives
    the sink (d / g) * part in each summand. The local data is computed
    from the general decomposition-type construction, not from a closed
    form; see point_config_closed_form for the cross-check.
    """
    m, d = operator.index(m), operator.index(d)
    if m < 1 or d < 2:
        raise ValueError("needs m >= 1 and d >= 2")
    setup = point_configurations(m, d)
    parts = _point_config_parts(m, d, lam)
    xi = LunaType(tuple((p, 1) for p in parts))
    return local_quiver(setup.quiver, xi, setup.deformed)


def point_config_closed_form(m: int, d: int, lam: MarkedPartition) -> dict:
    """Closed-form cross-check for point_config_local_data.

    With g = gcd(d, m), e = d/g, n = m/g, the construction gives
    e*(n - e)*part_p*part_q arrows between distinct local vertices and
    stability d - e*part on the marked vertex, -e*part on the others.
    The sign-flipped arrow count e*(e - n)*part_p*part_q is reported as
    well: it is negative exactly when n > e, so it cannot be an arrow
    count in that regime, and the comparison flags match accordingly.
    """
    m, d = operator.index(m), operator.index(d)
    quiver, dim, stab = point_config_local_data(m, d, lam)
    g = gcd(d, m)
    e = d // g
    n = m // g
    parts_in_order = [lam.parts[lam.marked]] + [
        p for i, p in enumerate(lam.parts) if i != lam.marked
    ]
    s = len(parts_in_order)

    def closed_form(factor: int) -> tuple[list, bool]:
        table = [
            [factor * parts_in_order[p] * parts_in_order[qq] if p != qq else None for qq in range(s)]
            for p in range(s)
        ]
        matches = all(
            quiver.arrows[p][qq] == table[p][qq] for p in range(s) for qq in range(s) if p != qq
        )
        return table, matches

    offdiag, offdiag_matches = closed_form(e * (n - e))
    offdiag_alt, alt_matches = closed_form(e * (e - n))
    stab_expected = [d - e * parts_in_order[0]] + [-e * p for p in parts_in_order[1:]]
    return {
        "arrows": quiver.arrows,
        "stability": tuple(stab.weights),
        "offdiag_closed_form": offdiag,
        "offdiag_matches": offdiag_matches,
        "offdiag_alternate_sign": offdiag_alt,
        "alternate_sign_matches": alt_matches,
        "stability_closed_form": tuple(stab_expected),
        "stability_matches": tuple(stab.weights) == tuple(stab_expected),
    }


# ---------------------------------------------------------------------------
# rank-one matrices: exact smallness in closed form


class RankOneSmallness(_Record):
    """Exact fibre and codimension data for the rank-one matrix family."""

    __slots__ = ("m", "n", "fiber_dim", "stratum_codim", "small", "note")
    m: int
    n: int
    fiber_dim: int
    stratum_codim: int
    small: bool
    note: str


def rank_one_smallness_report(m: int, n: int) -> RankOneSmallness:
    """Exact smallness verdict for rank <= 1 matrices in M_{m x n}.

    For the two-vertex quiver with m and n arrows, d = (1, 1) and deformed
    stability (1, -1), the fibre over the cone point is a projective space
    of dimension m - 1 while the matrix variety has dimension m + n - 1.
    The desingularization is small exactly when m <= n.
    """
    m, n = operator.index(m), operator.index(n)
    if m < 1 or n < 1:
        raise ValueError("needs m, n >= 1")
    fiber = m - 1
    codim = m + n - 1
    small = 2 * fiber < codim
    assert small == (m <= n)
    note = "small (m <= n)" if small else "not small (m > n)"
    return RankOneSmallness(m, n, fiber, codim, small, note)
