from itertools import combinations, permutations, product
from random import Random

from hn_oracle import (
    dt_logs_by_cells,
    factorial_by_dicts,
    hn_decompositions,
    hn_numerators_by_cells,
    hn_problems,
    p_by_decompositions,
    repeated_vertex_problems,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ratfunc_oracle import require_q_polynomial

from quivermoduli import (
    DimVector,
    HalfLaurent,
    PreconditionError,
    Quiver,
    RatFunc,
    Stability,
    betti_coprime,
    dt_invariants,
    ic_poincare_dt,
    is_coprime,
    normalize_stability,
    p_poly,
    symmetric_on_kernel,
)
from quivermoduli.core import DEFAULT_MAX_BOX, sub_box
from quivermoduli.halfq import _dense, _unpack
from quivermoduli.invariants import _dt_logs, _dt_value, _hn_numerators, _orbits, _widths


def _laurent(f) -> HalfLaurent:
    """The HalfLaurent of a dense (valuation, coefficients) pair."""
    low, coeffs = f
    return HalfLaurent({low + k: c for k, c in enumerate(coeffs)})


class TestHnDecompositions:
    def test_two_vertex_balanced(self):
        decs = hn_decompositions(DimVector((1, 1)), Stability((1, -1)))
        parts = {tuple(dec.parts) for dec in decs}
        assert parts == {
            (DimVector((1, 1)),),
            (DimVector((1, 0)), DimVector((0, 1))),
        }

    def test_single_vertex_trivial_only(self):
        decs = hn_decompositions(DimVector((2,)), Stability((0,)))
        assert [dec.parts for dec in decs] == [(DimVector((2,)),)]

    def test_mirror(self):
        decs = hn_decompositions(DimVector((1, 1)), Stability((-1, 1)))
        parts = {tuple(dec.parts) for dec in decs}
        assert parts == {
            (DimVector((1, 1)),),
            (DimVector((0, 1)), DimVector((1, 0))),
        }

    def test_contains_trivial_and_is_deterministic(self):
        d = DimVector((2, 1))
        theta = Stability((1, -2))
        first = hn_decompositions(d, theta)
        second = hn_decompositions(d, theta)
        assert [dec.parts for dec in first] == [dec.parts for dec in second]
        assert (d,) in [dec.parts for dec in first]
        for dec in first:
            assert dec.total() == d


@settings(max_examples=60, derandomize=True, deadline=None)
@given(hn_problems())
def test_recursion_matches_decomposition_sum(problem):
    q, d, theta = problem
    assert p_poly(q, d, theta) == p_by_decompositions(q, d, theta)


# levi_adjoint(4) and points(3, 2) of the catalog under their deformed
# stabilities: classes {i2, i3, i4} and {i2, i3} beside single vertices
TORUS_DEFORMED = (
    Quiver.from_matrix([[1] * 4 for _ in range(4)]),
    DimVector((1, 1, 1, 1)),
    Stability((3, -1, -1, -1)),
)
POINTS_DEFORMED = (
    Quiver.from_matrix([[0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 1], [0, 0, 0, 0]]),
    DimVector((1, 1, 1, 2)),
    Stability((6, 4, 4, -7)),
)


def _outcome(route, *args):
    """A route's value, or the type of the precondition error it raises."""
    try:
        return route(*args)
    except PreconditionError as exc:
        return type(exc)


def _classes(q, d, theta):
    """Components of the graph of the vertex swaps that fix the Euler matrix, d and theta."""
    e, n, tnorm = q.euler_matrix(), len(d), normalize_stability(theta, d)
    cls = list(range(n))
    for i, j in combinations(range(n), 2):
        p = list(range(n))
        p[i], p[j] = j, i
        fixed = all(e[p[a]][p[b]] == e[a][b] for a in range(n) for b in range(n))
        if fixed and d[i] == d[j] and tnorm[i] == tnorm[j]:
            old = cls[j]
            cls = [cls[i] if c == old else c for c in cls]
    return [[v for v in range(n) if cls[v] == c] for c in sorted(set(cls))]


def _group(classes, n):
    """Every permutation of range(n) that maps each class onto itself."""
    for parts in product(*(permutations(c) for c in classes)):
        p = list(range(n))
        for c, image in zip(classes, parts):
            for a, b in zip(c, image):
                p[a] = b
        yield tuple(p)


class TestOrbitCompression:
    """The recursions over orbits of interchangeable vertices, against the walk over every cell."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(repeated_vertex_problems())
    @example(TORUS_DEFORMED)
    @example(POINTS_DEFORMED)
    def test_matches_walk_over_every_cell(self, problem):
        q, d, theta = problem
        tnorm = normalize_stability(theta, d)
        numerators, canon, _ = _hn_numerators(q, d, theta, DEFAULT_MAX_BOX)
        by_cells = hn_numerators_by_cells(q, d, theta)
        assert set(numerators) == {DimVector(canon(e.coords)) for e in by_cells}
        width = _widths(d.total)[0]
        for e, g in by_cells.items():
            assert _unpack(*numerators[DimVector(canon(e.coords))], width, 2) == _dense(g)
        logs, canon = _dt_logs(q, theta, d, DEFAULT_MAX_BOX)
        logs_by_cells = dt_logs_by_cells(q, theta, d)
        assert set(logs) == {canon(e) for e in logs_by_cells}
        for e, m in logs_by_cells.items():
            assert logs[canon(e)] == _dense(m)

        p = RatFunc.from_ratio(-HalfLaurent(by_cells[d]), HalfLaurent(factorial_by_dicts(d)))
        assert p_poly(q, d, theta) == p
        if is_coprime(tnorm, d):
            betti = require_q_polynomial((RatFunc.q_power(1) - 1) * p, "(q - 1) * p")
        else:
            betti = PreconditionError
        assert _outcome(betti_coprime, q, d, theta) == betti
        dense_logs = {e: _dense(m) for e, m in logs_by_cells.items()}
        dt = {
            DimVector(e): RatFunc.from_ratio(*map(_laurent, _dt_value(e, dense_logs)))
            for e in logs_by_cells
        }
        assert list(dt_invariants(q, theta, d).items()) == list(dt.items())
        if symmetric_on_kernel(q, tnorm):
            k = 1 - q.euler_form(d, d)
            ic = require_q_polynomial(RatFunc.v_power(k) * (-1 if k % 2 else 1) * dt[d], "DT")
        else:
            ic = PreconditionError
        assert _outcome(ic_poincare_dt, q, d, theta) == ic

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(repeated_vertex_problems(), st.randoms(use_true_random=False))
    @example(TORUS_DEFORMED, Random(0))
    @example(POINTS_DEFORMED, Random(0))
    def test_walk_expands_to_the_sub_box(self, problem, rnd):
        # cells are the canonical cells in order, and walk(s) gives one cell
        # per orbit of the stabilizer of s, the lexicographically largest,
        # with the size of the orbit
        q, d, theta = problem
        cells, canon, walk = _orbits(q.euler_matrix(), d, normalize_stability(theta, d))
        group = list(_group(_classes(q, d, theta), len(d)))
        for t in sub_box(d.coords):
            assert canon(t) == max(tuple(t[i] for i in p) for p in group)
        assert list(cells) == sorted({canon(t) for t in sub_box(d.coords)})
        s = canon(rnd.choice(list(sub_box(d.coords))))
        stabilizer = [p for p in group if all(s[i] == s[a] for a, i in enumerate(p))]
        orbits = {frozenset(tuple(t[i] for i in p) for p in stabilizer) for t in sub_box(s)}
        assert sorted(walk(s)) == sorted((max(o), len(o)) for o in orbits)
