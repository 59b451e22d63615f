"""Test oracle for p_poly: the sum over ordered decompositions, term by term.

``hn_decompositions`` lists every ordered decomposition whose proper partial
sums have slope above slope(d), straight from the slope definition, and
``p_by_decompositions`` adds up their terms one ``RatFunc`` at a time. The
number of decompositions grows super-exponentially with the box, so this
is for small boxes only; the package computes the same sum by the
Harder-Narasimhan recursion. ``hn_problems`` draws the random inputs the
differential tests share.

``hn_values_by_cells``, ``hn_numerators_by_cells`` and ``dt_logs_by_cells``
run that recursion and the DT log over every cell of the box, one step per
pair T <= S, on {v-power: int} dicts with ``mul_add`` and the Gaussian
binomials of ``binomials_by_dicts``. The package runs them over one cell
per orbit of interchangeable vertices, on polynomials packed into ints,
and decodes each result into a dense coefficient list;
``repeated_vertex_problems`` draws inputs that have such orbits.
``pack_by_dicts`` packs a dict at any step digit by digit, and
``factorial_by_dicts`` is the q-factorial as a dict product, the oracles of
the package's ``_unpack`` and ``_factorial``.
"""

from __future__ import annotations

from dataclasses import dataclass

from hypothesis import assume
from hypothesis import strategies as st

from quivermoduli import (
    DimVector,
    HalfLaurent,
    Quiver,
    RatFunc,
    Stability,
    abelianized_quiver,
    box_iter,
    normalize_stability,
    slope,
)
from quivermoduli.core import sub_box
from quivermoduli.halfq import _mul


def mul_add(acc: dict, a: dict, b: dict, shift: int = 0, sign: int = 1) -> dict:
    """Add sign * v^shift * a * b into acc and return acc, all {v-power: int}.

    sign is any integer factor: a sign, or a sign times the size of an orbit.
    """
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            acc[p1 + p2 + shift] = acc.get(p1 + p2 + shift, 0) + sign * c1 * c2
    return acc


def pack_by_dicts(l: dict, width: int, step: int = 1) -> tuple[int, int]:
    """(low, x) of {v-power: int} in y = v^(-step): x = sum_k c_k 2^(width k)
    for the coefficient c_k of y^(low + k), added up digit by digit. Every
    power of l must be a multiple of step."""
    if not l:
        return 0, 0
    low = -max(l) // step
    return low, sum(c << width * (-p // step - low) for p, c in l.items())


def factorial_by_dicts(e, m: int = 0) -> dict:
    """prod_i prod_{j <= e_i, m not dividing j} (1 - v^(-2j)) as {v-power: int}; [e]! when m = 0."""
    out = {0: 1}
    for di in e:
        for j in range(1, di + 1):
            if not m or j % m:
                out = _mul(out, {0: 1, -2 * j: -1})
    return out


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


def binomials_by_dicts(top: int):
    """binom(s, t) = prod_i [s_i choose t_i] in v for t <= s <= top, as {v-power: int}.

    [n, k] = [n-1, k-1] + v^(-2k) [n-1, k], one dict per entry, and one dict
    product per coordinate of the pair.
    """
    table = [[{0: 1}]]
    for n in range(1, top + 1):
        prev = table[-1]
        row = [{0: 1}]
        for k in range(1, n):
            coeffs = dict(prev[k - 1])
            for p, c in prev[k].items():
                coeffs[p - 2 * k] = coeffs.get(p - 2 * k, 0) + c
            row.append(coeffs)
        row.append({0: 1})
        table.append(row)

    def binom(s: tuple[int, ...], t: tuple[int, ...]) -> dict[int, int]:
        out = {0: 1}
        for si, ti in zip(s, t):
            out = _mul(out, table[si][ti])
        return out

    return binom


def hn_values_by_cells(q: Quiver, d: DimVector, theta: Stability) -> dict[tuple[int, ...], dict]:
    """G(S) of the HN recursion at every nonzero S <= d of slope at least slope(d), keyed by S.coords.

    Every such cell S steps at every T <= S that is 0 or of slope above
    slope(d), in ascending lexicographic order, by
    -v^(-2 form(S - T, S)) [S choose T] G(T).
    """
    tnorm = normalize_stability(theta, d)
    euler = q.euler_matrix()
    n = len(d)
    binom = binomials_by_dicts(max(d))
    values: dict[tuple[int, ...], dict[int, int]] = {(0,) * n: {0: 1}}
    for cell in box_iter(d):
        if cell.is_zero or tnorm(cell) < 0:
            continue
        s = cell.coords
        es = [sum(row[j] * s[j] for j in range(n)) for row in euler]
        form_ss = sum(a * b for a, b in zip(s, es))
        acc: dict[int, int] = {}
        for t in sub_box(s):
            if t in values and (not any(t) or tnorm(DimVector(t)) > 0):
                shift = 2 * (sum(a * b for a, b in zip(t, es)) - form_ss)
                mul_add(acc, values[t], binom(s, t), shift, -1)
        values[s] = {p: c for p, c in acc.items() if c}
    del values[(0,) * n]
    return values


def hn_numerators_by_cells(q: Quiver, d: DimVector, theta: Stability) -> dict[DimVector, dict]:
    """G(e) = -[e]! p_e of the HN recursion at every nonzero e <= d of slope(d)."""
    tnorm = normalize_stability(theta, d)
    values = hn_values_by_cells(q, d, theta)
    return {DimVector(s): g for s, g in values.items() if tnorm(DimVector(s)) == 0}


def dt_logs_by_cells(q: Quiver, theta: Stability, d: DimVector) -> dict[tuple[int, ...], dict]:
    """M(e) = |e| [e]! (log S)_e of dt_invariants at every slope-zero e <= d.

    S_N(e) = -(-v)^form(e,e) G(e), and every e steps at every slope-zero
    0 < e1 < e by M(e) -= [e choose e1] M(e1) S_N(e - e1).
    """
    tnorm = normalize_stability(theta, d)
    binom = binomials_by_dicts(max(d))
    series: dict[tuple[int, ...], dict[int, int]] = {}
    for e, g in hn_numerators_by_cells(q, d, tnorm).items():
        form_ee = q.euler_form(e, e)
        sign = 1 if form_ee % 2 else -1
        series[e.coords] = {form_ee + p: sign * c for p, c in g.items()}
    logs: dict[tuple[int, ...], dict[int, int]] = {}
    for s, s_n in series.items():
        size = sum(s)
        acc = {p: size * c for p, c in s_n.items()}
        for t in sub_box(s):
            if t in logs:
                rest = series[tuple(si - ti for si, ti in zip(s, t))]
                mul_add(acc, _mul(binom(s, t), logs[t]), rest, sign=-1)
        logs[s] = {p: c for p, c in acc.items() if c}
    return logs


@st.composite
def repeated_vertex_problems(draw, max_cells: int = 64):
    """(quiver, d, theta) with k = 2-4 interchangeable vertices.

    A random quiver on 1-3 vertices gets k - 1 copies of one vertex, with its
    dimension, weight, loops and arrows to and from the others, and one
    arrow count, the same both ways, between any two copies. The vertices
    are then shuffled, and sometimes the problem is replaced by its
    abelianization, whose copies of a vertex are interchangeable too.
    """
    base = draw(st.integers(1, 3))
    copied = draw(st.integers(0, base - 1))
    index = list(range(base)) + [copied] * (draw(st.integers(2, 4)) - 1)
    index = [index[i] for i in draw(st.permutations(range(len(index))))]
    arrows = [[draw(st.integers(0, 3)) for _ in range(base)] for _ in range(base)]
    between = draw(st.integers(0, 3))
    matrix = [
        [between if a != b and i == j == copied else arrows[i][j] for b, j in enumerate(index)]
        for a, i in enumerate(index)
    ]
    top = 2 if len(index) <= 3 else 1
    coords = [draw(st.integers(0, top)) for _ in range(base)]
    weights = draw(st.one_of(st.just((0,) * base), st.tuples(*[st.integers(-3, 3)] * base)))
    d = DimVector(tuple(coords[i] for i in index))
    assume(not d.is_zero)
    cells = 1
    for c in d:
        cells *= c + 1
    assume(cells <= max_cells)
    problem = Quiver.from_matrix(matrix), d, Stability(tuple(weights[i] for i in index))
    if d.total <= 5 and draw(st.booleans()):
        problem = abelianized_quiver(*problem)
    return problem
