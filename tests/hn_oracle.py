"""Test oracle for p_poly: the sum over ordered decompositions, term by term.

``hn_decompositions`` lists every ordered decomposition whose proper partial
sums have slope above slope(d), straight from the slope definition, and
``p_by_decompositions`` adds up their terms one ``RatFunc`` at a time. The
number of decompositions grows super-exponentially with the box, so this
is for small boxes only; the package computes the same sum by the
Harder-Narasimhan recursion. ``hn_problems`` draws the random inputs the
differential tests share.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import assume
from hypothesis import strategies as st

from quivermoduli import DimVector, HalfLaurent, Quiver, RatFunc, Stability, box_iter, slope


@dataclass(frozen=True)
class OrderedDecomposition:
    """Ordered tuple of nonzero dimension vectors summing to a fixed total.

    Stored together with the stability whose partial-sum slope condition
    selected it.
    """

    parts: tuple[DimVector, ...]
    stability: Stability

    def total(self) -> DimVector:
        out = self.parts[0]
        for p in self.parts[1:]:
            out = out + p
        return out


def hn_decompositions(d: DimVector, theta: Stability) -> list[OrderedDecomposition]:
    """Ordered decompositions whose proper partial sums have slope > slope(d).

    Every tuple (d^1, ..., d^s) of nonzero vectors with sum d such that
    slope(d^1 + ... + d^k) > slope(d) for all k < s. Enumeration is
    depth-first with parts in ascending lexicographic order, so the output
    order is deterministic; the one-part decomposition (d) always occurs.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    mu_d = slope(theta, d)
    results: list[OrderedDecomposition] = []

    def extend(prefix: tuple[DimVector, ...], acc: DimVector) -> None:
        for p in box_iter(d - acc):
            if p.is_zero:
                continue
            acc2 = acc + p
            if acc2 == d:
                results.append(OrderedDecomposition(prefix + (p,), theta))
            elif slope(theta, acc2) > mu_d:
                extend(prefix + (p,), acc2)

    extend((), DimVector((0,) * len(d)))
    return results


def p_by_decompositions(q: Quiver, d: DimVector, theta: Stability) -> RatFunc:
    """Alternating sum of weighted terms over hn_decompositions(d, theta).

    Each decomposition (d^1, ..., d^s) contributes

        (-1)^(s-1) * q^(-sum_{k<=l} form(d^l, d^k))
                   * prod_k prod_i prod_{j=1}^{d^k_i} (1 - q^{-j})^{-1},

    assembled exactly as a rational function in v (q = v^2).
    """
    total = RatFunc.zero()
    for dec in hn_decompositions(d, theta):
        parts = dec.parts
        s = len(parts)
        expo = sum(
            q.euler_form(parts[l], parts[k]) for l in range(s) for k in range(l + 1)
        )
        den = HalfLaurent.one()
        for part in parts:
            for di in part:
                for j in range(1, di + 1):
                    den = den * (HalfLaurent.one() - HalfLaurent.monomial(-2 * j))
        num = HalfLaurent.monomial(-2 * expo, (-1) ** (s - 1))
        total = total + RatFunc.from_ratio(num, den)
    return total


@st.composite
def hn_problems(draw, max_cells: int = 24, vertices: tuple[int, int] = (2, 4)):
    """(quiver, d, theta): vertices[0]-vertices[1] vertices, arrow and loop
    counts 0-3, a box of at most max_cells cells and weights in [-3, 3],
    theta = 0 included."""
    n = draw(st.integers(*vertices))
    arrows = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)]
    coords, cells = [], 1
    for _ in range(n):
        c = draw(st.integers(0, min(3, max_cells // cells - 1)))
        coords.append(c)
        cells *= c + 1
    assume(any(coords))
    weights = draw(st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-3, 3)] * n)))
    return Quiver.from_matrix(arrows), DimVector(tuple(coords)), Stability(weights)
