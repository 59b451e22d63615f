"""Counting invariants of quiver moduli.

The generating rational functions attached to slope-filtered ordered
decompositions, the Betti polynomial of the moduli space in the coprime
case, q-Donaldson-Thomas invariants extracted with the plethystic
logarithm, and the two independent routes to the intersection-cohomology
Poincare polynomial. Both p and the DT invariants run in integer Laurent
polynomials in v, Gaussian-normalized: the coefficient at e is kept
multiplied by [e]! = prod_i prod_{j=1}^{e_i} (1 - v^(-2j)). No gcd is
taken on the way. The integers take the two forms of halfq. Each
recursion packs its values at its own width, which _widths fixes per call
from l1-norm bounds (Fubini numbers): in y = v^-2 for the HN recursion,
whose powers are all even, and in y = v^-1 for the DT log. A step is one
product of ints, the steps of a cell are one _packed_sum, and each
recursion decodes what it packs, once per result, into a dense coefficient
list, finished there by list operations: p and each DT invariant by
RatFunc._from_integers (one integer gcd of the packed num and den, see
halfq), the Betti polynomial and the sign-twisted DT invariant by one
exact division. Both recursions
run over orbits: vertices that a swap leaves interchangeable give equal
values on every cell of an orbit, so one canonical cell per orbit is
computed, and a step stands for a whole orbit of pairs. The routes are

* the DT route, a sign-twisted DT invariant, valid when the form is
  symmetric on the kernel of the stability;
* the resolution route, the coprime Betti polynomial for a generic
  deformation of the stability.

Both are exact and must agree whenever their shared hypotheses hold.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import cache
from itertools import chain, combinations_with_replacement, groupby, islice, product, repeat
from math import comb, factorial, prod
from operator import add, getitem, itemgetter, mul, sub

from .core import (
    DEFAULT_MAX_BOX,
    DimVector,
    Quiver,
    Stability,
    _vertex_classes,
    check_box,
    is_coprime,
    normalize_stability,
    sub_box,
    symmetric_on_kernel,
)
from .deform import is_generic_deformation
from .errors import InternalCheckError, PreconditionError
from .halfq import (
    Dense,
    HalfLaurent,
    RatFunc,
    _exact_quotient,
    _mobius,
    _one_minus,
    _pack,
    _packed_sum,
    _stretched,
    _trimmed,
    _unpack,
)


def _binomials(top: int, width: int) -> list[list[int]]:
    """[n choose k] in v, packed in y = v^-2 at width (see halfq), as row n, entry k, for n <= top.

    [n, k] = [n-1, k-1] + v^(-2k) [n-1, k] = [n]! / ([k]! [n-k]!) is a
    polynomial in v^-2 with nonnegative integer coefficients that sum to
    C(n, k), so every entry has lowest power 0 and decodes for any width
    with C(top, k) < 2^(width - 1). A pair's binomial binom(s, t) = prod_i
    [s_i choose t_i] is the product of row s_i, entry t_i over i.
    """
    table = [[1]]
    for n in range(1, top + 1):
        prev = table[-1]
        table.append([1, *(prev[k - 1] + (prev[k] << width * k) for k in range(1, n)), 1])
    return table


@cache
def _widths(total: int) -> tuple[int, int]:
    """Digit widths, multiples of 8, for G of _hn_numerators and M of _dt_logs when |d| = total.

    G(S) = -sum_T w v^(...) binom(S, T) G(T), and the l1 norm |f| = sum of
    |coefficients| satisfies |fg| <= |f| |g| and |binom(S, T)| = prod_i
    C(s_i, t_i), so |G(S)| <= sum_T w |G(T)| prod_i C(s_i, t_i). The orbit
    weights w count every cell T < S once, and the cells with |T| = k carry
    prod_i C(s_i, t_i) summing to C(|S|, k) (Vandermonde), so by induction
    |G(S)| <= a(|S|) with a(0) = 1, a(n) = sum_{k < n} C(n, k) a(k): the
    Fubini numbers, which count ordered set partitions. In the same way,
    M(e) = |e| S_N(e) - sum w binom(e, e1) M(e1) S_N(e - e1) and |S_N(e)| =
    |G(e)| give |M(e)| <= m(|e|) with m(n) = n a(n) + sum_{0 < k < n}
    C(n, k) m(k) a(n - k), increasing in n. A coefficient is at most the
    l1 norm, so widths with a(total), m(total) < 2^(width - 1) decode every
    value of the call.
    """
    a, m = [1], [0]
    for n in range(1, total + 1):
        a.append(sum(comb(n, k) * a[k] for k in range(n)))
        m.append(n * a[n] + sum(comb(n, k) * m[k] * a[n - k] for k in range(1, n)))
    return tuple(8 * (b.bit_length() // 8 + 1) for b in (a[total], m[total]))


@cache
def _run_choices(k: int, top: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """The non-increasing c in [0, top]^k, and for each the number of its distinct orderings."""
    values = list(combinations_with_replacement(range(top, -1, -1), k))
    counts = [factorial(k) // prod(factorial(len(list(g))) for _, g in groupby(c)) for c in values]
    return values, counts


def _orbits(
    euler: tuple[tuple[int, ...], ...], d: DimVector, tnorm: Stability
) -> tuple[Iterable[tuple[int, ...]], Callable, Callable]:
    """Canonical cells and orbit walks for the classes of interchangeable vertices.

    Vertices i and j are interchangeable when swapping them fixes the Euler
    matrix euler, d and tnorm. This is an equivalence relation, since (ik) =
    (ij)(jk)(ij), and permuting the vertices within its classes fixes G, S_N
    and M of the recursions below. Returns (cells, canon, walk):

    * cells are the canonical cells of the box [0, d] in ascending
      lexicographic order;
    * canon(t) sorts t descending within each class: the one cell of its
      orbit that the recursions keep;
    * walk(s), for a canonical s, yields (t, w) for one t in each orbit of
      the cells t <= s under the stabilizer of s, where w is the size of the
      orbit. The stabilizer permutes each run of equal values of s within a
      class, so t is non-increasing along each run and w is a product of
      multinomials. form(s - t, s) and binom(s, t) are constant on the orbit.

    When every class is a single vertex, cells is sub_box(d), canon is the
    identity and walk is sub_box with weight 1.
    """
    n, dc = len(d), d.coords

    def swappable(i: int, j: int) -> bool:
        p = list(range(n))
        p[i], p[j] = j, i
        return all(euler[p[a]][p[b]] == euler[a][b] for a in range(n) for b in range(n))

    units = _vertex_classes(d, tnorm, swappable)  # d_i = 0 leaves i single
    if len(units) == n:  # no class of two or more vertices
        return sub_box(dc), tuple, lambda s: zip(sub_box(s), repeat(1))
    multiple = [cls for cls in units if len(cls) > 1]
    # a walk draws the values class by class; place puts them in vertex order
    order = list(chain.from_iterable(units))
    place = itemgetter(*sorted(range(n), key=order.__getitem__))

    def canon(t: tuple[int, ...]) -> tuple[int, ...]:
        out = list(t)
        for cls in multiple:
            for p, x in zip(cls, sorted([t[p] for p in cls], reverse=True)):
                out[p] = x
        return tuple(out)

    def walk(s: tuple[int, ...]):
        runs = [
            _run_choices(len(list(g)), top) for c in units for top, g in groupby(s[p] for p in c)
        ]
        values = map(tuple, map(chain.from_iterable, product(*(r[0] for r in runs))))
        return zip(map(place, values), map(prod, product(*(r[1] for r in runs))))

    return sorted(map(itemgetter(0), walk(dc))), cache(canon), walk


def _hn_numerators(
    q: Quiver, d: DimVector, theta: Stability, max_box: int
) -> tuple[dict[tuple[int, ...], tuple[int, Dense]], Callable, Callable]:
    """Harder-Narasimhan recursion over the canonical cells of the box [0, d].

    Returns, keyed by the coordinates of every canonical nonzero e <= d
    (see _orbits) with slope(e) = slope(d), the pair form(e, e) and the
    dense G(e) = -[e]! p_e, where [e]! = prod_i prod_{j=1}^{e_i} (1 - v^(-2j));
    then the canon and walk of _orbits, which the DT log reuses.
    See p_poly for the sum and the recursion. G is constant on orbits, so a
    cell S steps once per orbit of its sub-box, weighted by the orbit's
    size, at G(canon T). For T <= S, canon T <= S too, so visiting the
    canonical cells in ascending lexicographic order finishes every canon
    T != S before S; only cells of slope at least slope(d) are needed.

    Every power of G is even, so G is packed in y = v^-2 (see halfq) at the
    width _widths(|d|)[0], which bounds every coefficient of G. A step is
    one product of ints, the orbit size times the row entries of _binomials
    times G(T), moved by form(S - T, S) digits, and the steps of S are one
    _packed_sum; each returned value is decoded once, exactly.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    check_box(d, max_box)
    tnorm = normalize_stability(theta, d)
    euler = q.euler_matrix()
    dc, weights, theta_w = d.coords, tnorm.weights, theta.weights
    theta_d, size_d = theta(d), d.total
    width = _widths(size_d)[0]
    table = _binomials(max(dc), width)
    cells, canon, walk = _orbits(euler, d, tnorm)
    # cells that may end a proper partial sum, with their packed G values
    sources = {(0,) * len(dc): (0, 1)}
    numerators: dict[tuple[int, ...], tuple[int, Dense]] = {}
    for s in islice(cells, 1, None):  # the first cell is 0
        weight = sum(map(mul, weights, s))
        # slope(s) > slope(d), in integers
        if s != dc and (sum(map(mul, theta_w, s)) * size_d > theta_d * sum(s)) != (weight > 0):
            raise InternalCheckError("slope and weight forms of the condition disagree")
        if weight < 0:
            continue
        es = [sum(map(mul, row, s)) for row in euler]
        rows = [table[si] for si in s]
        # sum_T w binom(S, T) G(T) y^(-t.es)
        terms = (
            (prod(map(getitem, rows, t), start=w) * g[1], g[0] - sum(map(mul, t, es)))
            for t, w in walk(s)
            if (g := sources.get(canon(t))) is not None
        )
        low, acc = _packed_sum(terms, width)
        # G(S) is that sum times -y^form(S, S)
        form = sum(map(mul, s, es))
        if weight > 0:
            sources[s] = (low + form, -acc)
        else:
            numerators[s] = form, _stretched(_unpack(low + form, -acc, width), 2)
    return numerators, canon, walk


def _factorial(e: Iterable[int], m: int, f: Dense) -> Dense:
    """f prod_i prod_{j <= e_i, m not dividing j} (1 - v^(-2j)); f [e]! when m = 0."""
    for di in e:
        for j in range(1, di + 1):
            if not m or j % m:
                f = _one_minus(f, -2 * j)
    return f


def p_poly(
    q: Quiver, d: DimVector, theta: Stability, max_box: int = DEFAULT_MAX_BOX
) -> RatFunc:
    """Alternating sum of weighted terms over the ordered HN-type decompositions of d.

    Equals the sum over tuples (d^1, ..., d^s) of nonzero vectors with sum d
    whose proper partial sums S_k = d^1 + ... + d^k all have
    slope(theta, S_k) > slope(theta, d) of

        (-1)^(s-1) * q^(-sum_{k<=l} form(d^l, d^k)) / prod_k [d^k]!,

    where [e]! = prod_i prod_{j=1}^{e_i} (1 - q^{-j}), as an exact rational
    function in v (q = v^2).

    Computed by Reineke's Harder-Narasimhan recursion instead of listing the
    tuples, whose number grows super-exponentially. The exponent splits per
    step, sum_{k<=l} form(d^l, d^k) = sum_l form(d^l, S_l), so with F(0) = 1,

        F(S) = sum_T F(T) * (-q^(-form(S - T, S))) / [S - T]!

    over cells T < S with T = 0 or slope(T) > slope(d), and p = -F(d).
    G(S) = [S]! F(S) steps by -v^(-2 form(S - T, S)) [S choose T] G(T), so the
    recursion runs in integer Laurent polynomials in v and p = -G(d) / [d]!
    is canonicalized once at the end.
    The recursion keeps one canonical cell S per orbit of the classes of
    interchangeable vertices, and S steps once per orbit of its sub-box under
    the stabilizer of S, weighted by the orbit's size (see _orbits). The work
    is one step per canonical pair: at most prod_i (d_i + 1)(d_i + 2) / 2,
    the count of all pairs T <= S, when no two vertices are interchangeable,
    and (k + 1)(k + 2) / 2 instead of 3^k on k interchangeable vertices of
    dimension 1.
    """
    g = _hn_numerators(q, d, theta, max_box)[0][d.coords][1]
    return -RatFunc._from_integers(g, _factorial(d, 0, (0, [1])))


def _q_polynomial(num: Dense, den: Dense, what: str) -> HalfLaurent:
    """num / den by one exact division in integers; it must be a polynomial in q."""
    quot = _exact_quotient(num[1], den[1])
    if quot is None:
        raise InternalCheckError(f"{what} is not a Laurent polynomial with integer coefficients")
    value = HalfLaurent({p + num[0] - den[0]: c for p, c in enumerate(quot)})
    if not value.is_q_polynomial():
        raise InternalCheckError(f"{what} is not a polynomial in q: {value.pretty()}")
    return value


def betti_coprime(
    q: Quiver, d: DimVector, theta: Stability, max_box: int = DEFAULT_MAX_BOX
) -> HalfLaurent:
    """Poincare polynomial (q - 1) * p_poly in the coprime case.

    Coefficient of q^i is the i-th compactly supported Betti number of the
    moduli space, provided it is nonempty; nonemptiness is assumed, not
    checked. Requires d to be coprime for the normalized stability.
    """
    tnorm = normalize_stability(theta, d)
    if not is_coprime(tnorm, d, max_box):
        raise PreconditionError("stability not coprime for d")
    # (q - 1) p = (1 - v^2) G(d) / [d]!, one exact division
    g = _hn_numerators(q, d, theta, max_box)[0][d.coords][1]
    return _q_polynomial(_one_minus(g, 2), _factorial(d, 0, (0, [1])), "(q - 1) * p")


def dt_invariants(
    q: Quiver, theta: Stability, d: DimVector, max_box: int = DEFAULT_MAX_BOX
) -> dict[DimVector, RatFunc]:
    """q-Donaldson-Thomas invariants for all slope-zero exponents up to d.

    The invariants are the coefficients of (v^-1 - v) Log S, where Log is
    the plethystic logarithm and S = 1 + sum (-v)^(form(e,e)) p_e t^e over
    the nonzero e <= d of normalized weight zero. All the p_e come from one
    pass of the recursion of p_poly over the box of d: with the normalized
    weight, the partial-sum condition is positivity for every such e.

    Every coefficient at e is kept multiplied by [e]! as an integer Laurent
    polynomial in v (packed while the log runs, see _dt_logs), so S_N(e) =
    -(-v)^(form(e,e)) G(e), and a product of series becomes a convolution
    with Gaussian binomials: (AB)_N(e) = sum_{e1 + e2 = e}
    [e choose e1] A_N(e1) B_N(e2). The grading derivation t^e -> |e| t^e
    turns D S = S * D(log S) into

        M(e) = |e| S_N(e) - sum_{0 < e1 < e} [e choose e1] M(e1) S_N(e - e1)

    for M(e) = |e| [e]! (log S)_e. Like G in p_poly, M is computed at one
    canonical e per orbit, which steps once per orbit of its sub-box, at the
    slope-zero e1: at most one step per canonical pair of p_poly.
    The Moebius inversion of the Adams operations then reads

        |e| [e]! (Log S)_e = sum_{m | e} mu(m) M(e/m)(v -> v^m) [e]! / [e/m]!(v -> v^m),

    and _factorial(e, m, f) multiplies f by the last factor. No gcd is
    taken until the end: each invariant is canonicalized once, by one
    RatFunc._from_integers (one integer gcd) with denominator |e| [e]!, at
    the canonical e of its orbit; every e of the orbit shares that one value.
    """
    logs, canon = _dt_logs(q, theta, d, max_box)
    values = {s: RatFunc._from_integers(*_dt_value(s, logs)) for s in logs}
    return {DimVector(t): values[c] for t in sub_box(d.coords) if (c := canon(t)) in values}


def _dt_logs(q: Quiver, theta: Stability, d: DimVector, max_box: int) -> tuple[dict, Callable]:
    """M(e) of dt_invariants for every canonical slope-zero e <= d, keyed by
    e.coords, and the canon of _orbits.

    S_N and M mix even and odd powers of v, so they are packed in y = v^-1
    at the width _widths(|d|)[1], which bounds every coefficient of M, with
    the rows of _binomials at twice that width. Each G(e) is packed once,
    the steps of each M(e) are one _packed_sum, and M(e) is decoded at the end.
    """
    tnorm = normalize_stability(theta, d)
    numerators, canon, walk = _hn_numerators(q, d, tnorm, max_box)
    width = _widths(d.total)[1]
    table = _binomials(max(d.coords), 2 * width)
    # S_N(e) = -(-v)^form(e,e) G(e)
    series: dict[tuple[int, ...], tuple[int, int]] = {}
    for e, (form_ee, g) in numerators.items():
        low, x = _pack(g, width)
        series[e] = (low - form_ee, x if form_ee % 2 else -x)
    del numerators  # the dense G, packed again: freed before the log runs
    # M(e), canonical cells in ascending lexicographic order, so every
    # canon e1 != e comes first; one weighted step per orbit, as in G
    logs: dict[tuple[int, ...], tuple[int, int]] = {}
    for s, (low, x) in series.items():
        rows = [table[si] for si in s]
        terms = (
            (-prod(map(getitem, rows, t), start=w) * m[1] * rest[1], m[0] + rest[0])
            for t, w in walk(s)
            if (m := logs.get(canon(t))) is not None
            for rest in (series[canon(tuple(map(sub, s, t)))],)
        )
        logs[s] = _packed_sum(terms, width, low, sum(s) * x)
    return {s: _unpack(*value, width) for s, value in logs.items()}, canon


def _dt_value(s: tuple[int, ...], logs: dict) -> tuple[Dense, Dense]:
    """DT_e at the canonical e = s of dt_invariants from the M of _dt_logs, as
    dense (num, den); each factor of _factorial is one list operation."""
    terms = [
        (mu, _factorial(s, m, _stretched(logs[tuple(si // m for si in s)], m)))
        for m in range(1, max(s) + 1)
        if not any(si % m for si in s) and (mu := _mobius(m))
    ]
    # their sum is |e| [e]! (Log S)_e
    low = min(at for _, (at, _) in terms)
    acc = [0] * (max(at + len(c) for _, (at, c) in terms) - low)
    for mu, (at, c) in terms:
        i = at - low
        acc[i : i + len(c)] = map(add if mu > 0 else sub, acc[i : i + len(c)], c)
    # DT_e = (v^-1 - v) (Log S)_e = (1 - v^2) v^-1 (Log S)_e
    return _one_minus(_trimmed(low - 1, acc), 2), _factorial(s, 0, (0, [sum(s)]))


def ic_poincare_dt(
    q: Quiver, d: DimVector, theta: Stability, max_box: int = DEFAULT_MAX_BOX
) -> HalfLaurent:
    """Intersection-cohomology Poincare polynomial via the DT invariant.

    Returns (-v)^(1 - form(d, d)) * DT_d, which must come out a polynomial
    in q with integer coefficients. Requires the form to be symmetric on
    the kernel of the normalized stability; nonemptiness of the moduli
    space is assumed, not checked. Of the invariants of dt_invariants,
    only DT_d is finished, by one exact division.
    """
    tnorm = normalize_stability(theta, d)
    if not symmetric_on_kernel(q, tnorm):
        raise PreconditionError("form is not symmetric on the kernel of the stability")
    num, den = _dt_value(d.coords, _dt_logs(q, theta, d, max_box)[0])
    k = 1 - q.euler_form(d, d)
    twisted = num[0] + k, [-c for c in num[1]] if k % 2 else num[1]  # (-v)^k num
    return _q_polynomial(twisted, den, "sign-twisted DT invariant")


def ic_poincare_resolution(
    q: Quiver,
    d: DimVector,
    theta: Stability,
    theta_prime: Stability,
    max_box: int = DEFAULT_MAX_BOX,
) -> HalfLaurent:
    """Intersection-cohomology Poincare polynomial via a small resolution.

    For a generic deformation theta_prime of theta this equals the coprime
    Betti polynomial of the deformed stability. Requires the deformation
    check to pass and the form to be symmetric on the kernel of the
    normalized stability; nonemptiness of the stable locus is assumed.
    """
    tnorm = normalize_stability(theta, d)
    verdict = is_generic_deformation(tnorm, theta_prime, d, max_box)
    if not verdict.passed:
        raise PreconditionError(f"deformed stability is not a generic deformation: {verdict}")
    if not symmetric_on_kernel(q, tnorm):
        raise PreconditionError("form is not symmetric on the kernel of the stability")
    return betti_coprime(q, d, theta_prime, max_box)
