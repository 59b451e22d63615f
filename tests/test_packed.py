"""The packed integer polynomials of halfq and the two recursions that run on them.

The HN recursion and the DT log keep every value as one int, the polynomial
evaluated at 2^width, at a width fixed per call by _widths, and decode each
result once into a dense (valuation, coefficient list) pair. The unit tests
check packing and decoding at the edges of a digit against the
digit-by-digit packing of hn_oracle and the dense form of the dict,
_packed_sum against the sum of the dicts, and _factorial against the dict
product; the width bound is checked on every cell of one problem. The
properties compare the decoded values with the per-cell dict oracles of
hn_oracle, both at the width of _widths and at the smallest width that
holds the true values, where the largest coefficient of the call lies
within a factor 2^8 of 2^(width - 1).
"""

from __future__ import annotations

from math import comb
from unittest import mock

from hn_oracle import (
    dt_logs_by_cells,
    factorial_by_dicts,
    hn_numerators_by_cells,
    hn_values_by_cells,
    pack_by_dicts,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quivermoduli import DimVector, Quiver, Stability, box_iter, normalize_stability
from quivermoduli import invariants
from quivermoduli.core import DEFAULT_MAX_BOX
from quivermoduli.halfq import _dense, _mul, _pack, _packed_sum, _stretched, _unpack
from quivermoduli.invariants import _binomials, _factorial, _widths

Q_A = Quiver.from_matrix([[0, 2, 1], [1, 0, 3], [2, 1, 0]])


def _largest(values) -> int:
    """The largest |coefficient| among {v-power: int} values, 0 if there is none."""
    return max((abs(c) for l in values for c in l.values()), default=0)


class TestPacking:
    """_pack and _unpack at the edges of a digit."""

    WIDTHS = range(8, 88, 8)

    def _round_trip(self, l, width, step):
        # the digit-by-digit packing at any step decodes to the dense form of l
        want = _dense(l)
        assert _stretched(_unpack(*pack_by_dicts(l, width, step), width), step) == want
        if step == 1:
            # _pack packs that dense form as the digits of its nonzero coefficients
            nonzero = {p: c for p, c in l.items() if c}
            if nonzero:
                assert _pack(want, width) == pack_by_dicts(nonzero, width)
            assert _unpack(*_pack(want, width), width) == want

    def test_largest_digits(self):
        for width in self.WIDTHS:
            top = (1 << (width - 1)) - 1
            for step in (1, 2):
                for signs in ((1, 1, 1), (-1, -1, -1), (1, -1, 1), (-1, 1, -1)):
                    l = {step * k: sign * top for k, sign in zip((3, 0, -2), signs)}
                    self._round_trip(l, width, step)

    def test_zero(self):
        for width in self.WIDTHS:
            assert _unpack(0, 0, width) == (0, [])
            assert _stretched(_unpack(-5, 0, width), 2) == (0, [])
            assert _unpack(*_pack((0, []), width), width) == (0, [])
            self._round_trip({}, width, 1)
            for step in (1, 2):
                # zero digits inside and a zero coefficient given explicitly, at either end too
                self._round_trip({4: 1, 2: 0, -6: -1}, width, step)
                self._round_trip({8: 0, 4: 1, -6: -1, -10: 0}, width, step)

    def test_negative_top_digit(self):
        # the top digit is the lowest power of v: its sign borrows from nothing above it
        for width in self.WIDTHS:
            top = (1 << (width - 1)) - 1
            for low_digits in ({}, {5: top}, {5: 1, 3: -top}, {5: -1}):
                for c in (-1, -top):
                    self._round_trip({**low_digits, -7: c}, width, 1)

    def test_a_coefficient_out_of_range_is_refused(self):
        for width in self.WIDTHS:
            for c in (1 << (width - 1), -(1 << (width - 1)) - 1):
                try:
                    _pack((0, [c]), width)
                except OverflowError:
                    continue
                raise AssertionError(f"{c} packed at width {width}")

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.integers(-12, 12),
        st.lists(st.integers(-(10**6), 10**6), max_size=8),
        st.sampled_from(range(24, 88, 8)),
    )
    @example(0, [], 24)
    @example(-3, [0, 5, 0, -7, 0], 24)
    def test_pack_then_unpack_returns_the_input(self, low, coeffs, width):
        f = _dense({low + k: c for k, c in enumerate(coeffs)})
        assert _unpack(*_pack(f, width), width) == f

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        st.integers() | st.integers(-(2**300), 2**300) | st.integers(1, 300).map(lambda k: 2**k),
        st.sampled_from(range(8, 88, 8)),
        st.sampled_from([-1, 0, 1]),
    )
    # at width 8, 2^15 - 1 needs three balanced digits (1, -128, -1), and
    # -2^15 has the digits (-128, 0), whose zero lowest digit moves into low
    @example(2**15 - 1, 8, 0)
    @example(-(2**15), 8, 0)
    @example(0, 8, 0)
    def test_unpack_decodes_any_integer(self, x, width, delta):
        # any int, not only a packed value, decodes into balanced base-2^width
        # digits, which _pack packs back to it; _cofactors decodes an integer gcd so
        x += delta
        low, y = _pack(_unpack(0, x, width), width)
        assert low >= 0 and y << width * low == x

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.dictionaries(st.integers(-12, 12), st.integers(-(10**6), 10**6), max_size=8),
        st.dictionaries(st.integers(-12, 12), st.integers(-(10**6), 10**6), max_size=8),
    )
    def test_product_of_packed_values_is_the_packed_product(self, a, b):
        # a width above the l1 norms of the factors and of the product, as _widths takes it
        na, nb = sum(map(abs, a.values())), sum(map(abs, b.values()))
        bound = max(na, nb, na * nb)
        width = 8 * (bound.bit_length() // 8 + 1)
        (la, xa), (lb, xb) = _pack(_dense(a), width), _pack(_dense(b), width)
        assert _unpack(la + lb, xa * xb, width) == _dense(_mul(a, b))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.lists(
            st.dictionaries(st.integers(-12, 12), st.integers(-(10**6), 10**6), max_size=5),
            min_size=1,
            max_size=8,
        ),
        st.dictionaries(st.integers(-12, 12), st.integers(-(10**6), 10**6), max_size=5),
        st.sampled_from(range(32, 88, 8)),
    )
    # one term; terms going up, then down, from a zero start and from a nonzero one
    @example([{3: -7}], {}, 32)
    @example([{-4: 1}, {0: 2, 1: -3}, {6: 5}], {}, 32)
    @example([{6: 5}, {0: 2, 1: -3}, {-4: 1}], {2: 9, 3: -1}, 32)
    def test_packed_sum_decodes_to_the_dense_sum(self, terms, start, width):
        # every term is packed on its own, at its own lowest power; 9 values of
        # at most 10^6 sum below 2^31, so width 32 decodes the sum
        want: dict[int, int] = {}
        for l in (start, *terms):
            for p, c in l.items():
                want[p] = want.get(p, 0) + c
        packed = [_pack(_dense(l), width)[::-1] for l in terms]
        got = _packed_sum(iter(packed), width, *_pack(_dense(start), width))
        assert _unpack(*got, width) == _dense(want)

    def test_binomial_rows_decode_to_gaussian_binomials(self):
        # [4 choose 2] = 1 + v^-2 + 2 v^-4 + v^-6 + v^-8
        table = _binomials(6, 8)
        assert _stretched(_unpack(0, table[4][2], 8), 2) == _dense({0: 1, -2: 1, -4: 2, -6: 1, -8: 1})
        for n, row in enumerate(table):
            for k, x in enumerate(row):
                low, coeffs = _stretched(_unpack(0, x, 8), 2)
                assert sum(coeffs) == comb(n, k)
                # palindromic, from v^(-2k(n - k)) to v^0
                assert (low, low + len(coeffs) - 1) == (-2 * k * (n - k), 0)
                assert coeffs == coeffs[::-1]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.tuples(*[st.integers(0, 4)] * 3),
    st.integers(0, 4),
    st.dictionaries(st.integers(-12, 12), st.integers(-50, 50), max_size=6),
)
@example((4, 4, 4), 0, {0: 1})
@example((4, 4, 4), 4, {3: -2, 0: 0, -5: 1})
@example((4, 3, 2), 2, {})
@example((0, 0, 0), 3, {1: 7})
def test_factorial_multiplies_by_the_q_factorial(e, m, poly):
    # f times prod_i prod_{j <= e_i, m not dividing j} (1 - v^(-2j)), by list operations
    assert _factorial(e, m, _dense(poly)) == _dense(_mul(poly, factorial_by_dicts(e, m)))


class TestWidths:
    def test_fubini_numbers(self):
        # a(n) = 1, 1, 3, 13, 75, 541, ...: the widths are the multiples of 8 just above
        assert [_widths(n)[0] for n in (0, 1, 4, 5, 21, 27)] == [8, 8, 8, 16, 80, 112]
        assert all(_widths(n)[1] >= _widths(n)[0] for n in range(1, 40))

    def test_every_cell_of_a_problem_fits(self):
        # Q_A at d = (4, 5, 6): every G of the HN recursion, under a coprime
        # stability and at theta = 0, and every M of the DT log at theta = 0
        d = DimVector((4, 5, 6))
        width_g, width_m = _widths(d.total)
        for theta in (Stability((11, -4, 0)), Stability((0, 0, 0))):
            g = _largest(hn_values_by_cells(Q_A, d, theta).values())
            assert 0 < g < 1 << (width_g - 1)
        m = _largest(dt_logs_by_cells(Q_A, Stability((0, 0, 0)), d).values())
        assert 0 < m < 1 << (width_m - 1)


@st.composite
def wide_problems(draw, max_cells: int = 12):
    """(quiver, d, theta) on 1-3 vertices with arrow counts up to 9 and at most
    max_cells cells; theta in [-4, 4]^n, of the sign that makes at least as
    many cells sources (normalized weight > 0) as sinks."""
    n = draw(st.integers(1, 3))
    arrows = [[draw(st.integers(0, 9)) for _ in range(n)] for _ in range(n)]
    coords, cells = [], 1
    for _ in range(n):
        c = draw(st.integers(0, max_cells // cells - 1))
        coords.append(c)
        cells *= c + 1
    d = DimVector(tuple(coords))
    if d.is_zero:
        d = DimVector((1,) + d.coords[1:])
    theta = Stability(tuple(draw(st.integers(-4, 4)) for _ in range(n)))
    tnorm = normalize_stability(theta, d)
    signs = [tnorm(e) for e in box_iter(d)]
    if sum(w > 0 for w in signs) < sum(w < 0 for w in signs):
        theta = -theta
    return Quiver.from_matrix(arrows), d, theta


@st.composite
def cancelling_problems(draw):
    """(quiver, d, theta) on two blocks of vertices with no arrow between them
    and d nonzero on both. Under theta = 0 the DT series is a product of one
    series per block, so M(d) = 0; under a theta that gives the two blocks
    of d different slopes, no representation is semistable, so G(d) = 0."""
    n = draw(st.integers(2, 3))
    block = [0, 1] + [draw(st.integers(0, 1)) for _ in range(n - 2)]
    arrows = [
        [draw(st.integers(0, 9)) if block[i] == block[j] else 0 for j in range(n)]
        for i in range(n)
    ]
    coords = [draw(st.integers(1 if i < 2 else 0, 2)) for i in range(n)]
    theta = draw(st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-3, 3)] * n)))
    return Quiver.from_matrix(arrows), DimVector(tuple(coords)), Stability(theta), block


def _smallest_width(values) -> int:
    """The smallest multiple of 8 that decodes every coefficient of values."""
    return 8 * (_largest(values).bit_length() // 8 + 1)


def _check(q, d, theta, at_the_edge):
    """The packed recursions against the per-cell dict oracles, at every cell
    of each orbit: the numerators decoded at the width of G, and the dense M
    of the DT log. at_the_edge runs them at the smallest widths that decode
    the oracles' values; only returned values are decoded, so the sources
    of the HN recursion need not fit."""
    numerators = hn_numerators_by_cells(q, d, theta)
    logs = dt_logs_by_cells(q, theta, d)
    widths = _widths(d.total)
    if at_the_edge:
        widths = (_smallest_width(numerators.values()), _smallest_width(logs.values()))
    with mock.patch.object(invariants, "_widths", lambda total: widths):
        got, canon, _ = invariants._hn_numerators(q, d, theta, DEFAULT_MAX_BOX)
        got_logs, _ = invariants._dt_logs(q, theta, d, DEFAULT_MAX_BOX)
    assert set(got) == {canon(e.coords) for e in numerators}
    for e, g in numerators.items():
        assert got[canon(e.coords)] == (q.euler_form(e, e), _dense(g))
    assert set(got_logs) == {canon(e) for e in logs}
    assert all(got_logs[canon(e)] == _dense(m) for e, m in logs.items())
    return numerators, logs


@settings(max_examples=150, derandomize=True, deadline=None)
@given(wide_problems(), st.booleans())
# 9 arrows every way on boxes of 12 cells
@example((Quiver.from_matrix([[9, 9], [9, 9]]), DimVector((2, 3)), Stability((0, 0))), True)
@example((Quiver.from_matrix([[0, 9], [0, 0]]), DimVector((2, 3)), Stability((1, -1))), True)
@example((Quiver.from_matrix([[9] * 3] * 3), DimVector((1, 1, 2)), Stability((3, 1, -2))), True)
@example((Quiver.from_matrix([[0, 9, 9], [9, 0, 9], [9, 9, 0]]), DimVector((1, 2, 1)), Stability((0, 0, 0))), True)
def test_packed_recursions_match_the_dict_oracles(problem, at_the_edge):
    _check(*problem, at_the_edge)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(cancelling_problems(), st.booleans())
@example((Quiver.from_matrix([[2, 0], [0, 3]]), DimVector((3, 2)), Stability((-1, 1)), [0, 1]), True)
@example((Quiver.from_matrix([[9, 0], [0, 9]]), DimVector((2, 2)), Stability((0, 0)), [0, 1]), True)
def test_values_that_cancel_to_zero(problem, at_the_edge):
    q, d, theta, block = problem
    numerators, logs = _check(q, d, theta, at_the_edge)
    n = len(d)
    part = [sum(d[i] for i in range(n) if block[i] == b) for b in (0, 1)]
    weight = [sum(theta[i] * d[i] for i in range(n) if block[i] == b) for b in (0, 1)]
    if weight[0] * part[1] != weight[1] * part[0]:
        assert numerators[d] == {}
    if theta.is_zero:
        assert logs[d.coords] == {}


@st.composite
def odd_form_problems(draw):
    """dt problems (quiver, d, theta) on 1-3 vertices, arrows up to 9 and at most
    12 cells, with form(e, e) odd at some slope-zero e <= d, where S_N(e) and
    M(e) take odd powers of v."""
    q, d, theta = draw(wide_problems())
    theta = draw(st.sampled_from([Stability((0,) * len(d)), theta]))
    tnorm = normalize_stability(theta, d)
    odd = [e for e in box_iter(d) if not e.is_zero and tnorm(e) == 0 and q.euler_form(e, e) % 2]
    if not odd:
        # a vertex without loops has form 1 at its unit vector
        matrix = [list(row) for row in q.arrows]
        matrix[0][0] = 0
        q, theta = Quiver.from_matrix(matrix), Stability((0,) * len(d))
        d = DimVector((max(d[0], 1),) + d.coords[1:])
    return q, d, theta


@settings(max_examples=80, derandomize=True, deadline=None)
@given(odd_form_problems(), st.booleans())
@example((Quiver.from_matrix([[0, 9], [9, 0]]), DimVector((2, 3)), Stability((0, 0))), True)
def test_dt_logs_with_odd_forms(problem, at_the_edge):
    q, d, theta = problem
    tnorm = normalize_stability(theta, d)
    assert any(q.euler_form(e, e) % 2 for e in box_iter(d) if not e.is_zero and tnorm(e) == 0)
    _check(q, d, theta, at_the_edge)
