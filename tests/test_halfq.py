import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from ratfunc_oracle import from_ratio_by_euclid, integer_laurents, poly_gcd, prs_gcd

from quivermoduli import (
    DimVector,
    HalfLaurent,
    RatFunc,
    SlopeSeries,
    adams,
    halfq,
    pleth_exp,
    pleth_log,
    series_exp,
    series_log,
)
from quivermoduli.halfq import _cofactors, _dense, _exact_quotient, _mobius, _mul

BOX22 = DimVector((2, 2))
ZERO22 = DimVector((0, 0))


def q_minus_one():
    return RatFunc.q_power(1) - 1


def random_series(rng, box=BOX22):
    """Series with random Laurent-monomial coefficients, zero constant term."""
    terms = {}
    for e in _nonzero_exponents(box):
        if rng.random() < 0.6:
            coeff = rng.choice([-2, -1, 1, 2, 3])
            power = rng.randrange(-3, 4)
            terms[e] = RatFunc.v_power(power) * coeff
    return SlopeSeries(box, terms)


def _nonzero_exponents(box):
    out = []
    for a in range(box[0] + 1):
        for b in range(box[1] + 1):
            if a or b:
                out.append(DimVector((a, b)))
    return out


class TestHalfLaurent:
    def test_no_zero_coefficients_stored(self):
        l = HalfLaurent({3: 0, 1: 2})
        assert l.coeffs == {1: Fraction(2)}

    @pytest.mark.parametrize(
        "coeffs",
        [
            pytest.param({2.5: 1}, id="float-power"),
            pytest.param({"3": 1}, id="str-power"),
            pytest.param({Fraction(2): 1}, id="Fraction-power"),
            pytest.param({2.5: 0}, id="float-power-zero-coefficient"),
            pytest.param({0: 0.1}, id="float-coefficient"),
            pytest.param({0: 0.0}, id="float-zero-coefficient"),
            pytest.param({0: "1/2"}, id="str-coefficient"),
        ],
    )
    def test_non_integer_power_or_non_rational_coefficient_refused(self, coeffs):
        with pytest.raises(TypeError):
            HalfLaurent(coeffs)

    def test_operators_store_no_zeros(self):
        a = HalfLaurent({-1: 2, 0: Fraction(1, 3), 3: -5})
        assert (a + (-a)).coeffs == {} and (a - a).coeffs == {}
        v = HalfLaurent.monomial(1)
        product = (1 + v) * (1 - v)  # the v terms cancel
        assert product.coeffs == {0: Fraction(1), 2: Fraction(-1)}
        for value in (a + (-a), product, a * (a - a), (a + 1) - a):
            assert all(c != 0 and isinstance(c, Fraction) for c in value.coeffs.values())

    def test_arithmetic(self):
        a = HalfLaurent.q_power(1) + 1
        b = HalfLaurent.q_power(1) - 1
        assert a * b == HalfLaurent.q_power(2) - 1

    def test_stretched_and_shifted(self):
        l = HalfLaurent({1: 1, -2: 3})
        assert l.stretched(2) == HalfLaurent({2: 1, -4: 3})
        assert l.shifted(2) == HalfLaurent({3: 1, 0: 3})

    def test_pretty(self):
        assert (HalfLaurent.q_power(2) + HalfLaurent.q_power(3)).pretty() == "q^2 + q^3"
        assert HalfLaurent({1: -1, 3: -1}).pretty() == "-q^(1/2) - q^(3/2)"
        assert HalfLaurent.zero().pretty() == "0"

    def test_q_dict(self):
        l = HalfLaurent({0: 1, 4: 2})
        assert l.q_dict() == {0: Fraction(1), 2: Fraction(2)}
        with pytest.raises(ValueError):
            HalfLaurent({1: 1}).q_dict()


class TestSlopeSeries:
    def test_non_rational_coefficient_refused(self):
        with pytest.raises(TypeError, match="float"):
            SlopeSeries(DimVector((1,)), {DimVector((1,)): 0.5})

    @pytest.mark.parametrize(
        "box, terms, name",
        [
            pytest.param(DimVector((1,)), {(1,): 1}, "tuple", id="tuple-exponent"),
            pytest.param(DimVector((1,)), {"1": 1}, "str", id="str-exponent"),
            pytest.param((1,), {DimVector((1,)): 1}, "tuple", id="tuple-box"),
            pytest.param((1,), None, "tuple", id="tuple-box-no-terms"),
        ],
    )
    def test_exponent_or_box_that_is_no_dimension_vector_refused(self, box, terms, name):
        with pytest.raises(TypeError, match=f"DimVector, not {name}$"):
            SlopeSeries(box, terms)

    def test_operators_store_no_zeros(self):
        rng = random.Random(7)
        s = random_series(rng)
        assert not s.is_zero and (s - s).terms == {} and (s + (-s)).is_zero
        a = SlopeSeries.monomial(BOX22, DimVector((1, 0)), RatFunc.one())
        b = SlopeSeries.monomial(BOX22, DimVector((0, 1)), RatFunc.v_power(1))
        product = (a + b) * (a - b)  # the cross terms at (1, 1) cancel
        assert product == SlopeSeries(
            BOX22, {DimVector((2, 0)): RatFunc.one(), DimVector((0, 2)): -RatFunc.q_power(1)}
        )
        for value in (s - s, product, (s + a) - s, s * (a - a)):
            assert all(not c.is_zero for c in value.terms.values())


class TestRatFunc:
    def test_inverse_cancels(self):
        one_over = RatFunc.one() / q_minus_one()
        assert one_over * q_minus_one() == RatFunc.one()

    def test_one_kronecker_simplification(self):
        # q^-1 (1 - q^-1)^-2 - q^-2 (1 - q^-1)^-2 = 1/(q - 1)
        geom = (RatFunc.one() - RatFunc.q_power(-1)) ** (-2)
        value = RatFunc.q_power(-1) * geom - RatFunc.q_power(-2) * geom
        assert value == RatFunc.one() / q_minus_one()

    def test_two_kronecker_simplification(self):
        # (1 - q^-2)(1 - q^-1)^-2 = (q + 1)/(q - 1)
        value = (RatFunc.one() - RatFunc.q_power(-2)) * (
            (RatFunc.one() - RatFunc.q_power(-1)) ** (-2)
        )
        expected = (RatFunc.q_power(1) + 1) / q_minus_one()
        assert value == expected

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            RatFunc.one() / RatFunc.zero()

    def test_canonical_form_is_structural(self):
        rng = random.Random(19)
        num = HalfLaurent({0: 1, 2: -3, 5: 2})
        den = HalfLaurent({0: 2, 3: 1})
        base = RatFunc.from_ratio(num, den)
        for _ in range(20):
            c = HalfLaurent(
                {rng.randrange(-3, 4): rng.choice([-2, -1, 1, 2, 5]) for _ in range(3)}
            )
            if c.is_zero:
                continue
            scaled = RatFunc.from_ratio(num * c, den * c)
            assert scaled == base
            assert scaled.num == base.num
            assert scaled.den == base.den
            assert scaled.shift == base.shift

    def test_denominator_monic_and_coprime(self):
        r = RatFunc.from_ratio(HalfLaurent({0: 2, 1: 2}), HalfLaurent({0: 4, 2: 4}))
        assert r.den.leading_coefficient() == 1
        # (2 + 2v)/(4 + 4v^2) = (1 + v)/(2(1 + v^2))
        assert r.num == HalfLaurent({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert r.den == HalfLaurent({0: 1, 2: 1})

    def test_negative_powers_live_in_the_shift(self):
        r = RatFunc.q_power(-2)
        assert r.shift == -4
        assert r.num == HalfLaurent.one()
        assert r.as_laurent() == HalfLaurent({-4: 1})

    def test_pow_negative(self):
        r = q_minus_one()
        assert r ** (-2) == RatFunc.one() / (r * r)

    def test_field_axioms_on_random_values(self):
        rng = random.Random(61)

        def random_ratfunc():
            num = HalfLaurent(
                {rng.randrange(-2, 3): rng.randrange(-3, 4) for _ in range(3)}
            )
            den = HalfLaurent(
                {rng.randrange(0, 3): rng.randrange(-3, 4) for _ in range(2)}
            )
            if den.is_zero:
                den = HalfLaurent.one()
            return RatFunc.from_ratio(num, den)

        for _ in range(40):
            a, b, c = random_ratfunc(), random_ratfunc(), random_ratfunc()
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a - a == RatFunc.zero()
            if not a.is_zero:
                assert a * a.inverse() == RatFunc.one()
                assert (b / a) * a == b


def laurents(nonzero=False):
    """Laurent polynomials with Fraction coefficients of either sign and any valuation."""
    coeff = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
    polys = st.dictionaries(st.integers(-4, 8), coeff, max_size=6).map(HalfLaurent)
    return polys.filter(lambda l: not l.is_zero) if nonzero else polys


class TestFromRatioOracle:
    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(laurents(), laurents(nonzero=True), laurents(nonzero=True))
    # a constant denominator, and a common factor that is a constant
    @example(HalfLaurent({-2: 3, 1: Fraction(1, 2)}), HalfLaurent({3: -4}), HalfLaurent({0: 6}))
    # negative leading coefficients and a common factor of positive valuation
    @example(
        HalfLaurent({0: 1, 2: -5}), HalfLaurent({1: 2, 3: Fraction(-7, 3)}), HalfLaurent({2: 1, 3: -1})
    )
    # num a multiple of den: the quotient is a Laurent polynomial
    @example(
        HalfLaurent({0: 1, 1: 2, 2: 1}), HalfLaurent({0: 1, 1: 1}), HalfLaurent({-3: Fraction(2, 5)})
    )
    def test_matches_fraction_euclid(self, num, den, factor):
        num, den = num * factor, den * factor
        got = RatFunc.from_ratio(num, den)
        want = from_ratio_by_euclid(num, den)
        assert got.num.coeffs == want.num.coeffs
        assert got.den.coeffs == want.den.coeffs
        assert got.shift == want.shift

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        integer_laurents(),
        integer_laurents(nonzero=True),
        integer_laurents(nonzero=True),
        st.booleans(),
    )
    # zero coefficients at both ends of num, and den of negative valuation
    @example({-3: 0, -1: 4, 2: -6, 5: 0}, {-2: 2, 0: 0, 1: 1}, {0: 1}, False)
    # num = 0 given with zero coefficients
    @example({1: 0, 3: 0}, {0: 3, 2: -1}, {-1: 2}, False)
    # complete cancellation: den divides num, and the factor is shared
    @example({0: 1, 2: 1}, {0: -1, 1: 1}, {-2: 3, 0: 0, 4: 1}, True)
    def test_integer_constructor_matches_fraction_euclid(self, num, den, factor, multiple):
        # the engine's constructor on integer {v-power: int} data, which may
        # carry zero coefficients and a shared factor
        if multiple:
            num = _mul(num, den)
        num, den = _mul(num, factor), _mul(den, factor)
        got = RatFunc._from_integers(_dense(num), _dense(den))
        want = from_ratio_by_euclid(HalfLaurent(num), HalfLaurent(den))
        assert (got.num.coeffs, got.den.coeffs, got.shift) == (
            want.num.coeffs,
            want.den.coeffs,
            want.shift,
        )
        if multiple:
            assert got.is_laurent


def _times(a: list[int], b: list[int]) -> list[int]:
    """The product of two coefficient lists with nonzero ends, lowest power first."""
    return _dense(_mul(dict(enumerate(a)), dict(enumerate(b))))[1]


# coefficient lists with nonzero ends; small coefficients share factors often
_COEFF = st.integers(-3, 3) | st.integers(-(2**100), 2**100)
_POLYS = st.lists(_COEFF, min_size=1, max_size=5).filter(lambda c: c[0] and c[-1])


@st.composite
def cofactor_pairs(draw):
    """(a, b): products f g and f h, num = c den (complete cancellation), or a constant side."""
    f, g, h = draw(_POLYS), draw(_POLYS), draw(_POLYS)
    case = draw(st.sampled_from(["products", "cancellation", "constant"]))
    c = draw(_COEFF.filter(bool))
    if case == "products":
        a, b = _times(f, g), _times(f, h)
    elif case == "cancellation":
        b = _times(f, h)
        a = [c * x for x in b]
    else:
        a, b = _times(f, g), [c]
    return (b, a) if draw(st.booleans()) else (a, b)


class TestCofactors:
    """_cofactors, the heuristic gcd of RatFunc._from_integers, judged by Euclid
    over the rationals (poly_gcd, from_ratio_by_euclid) and by the primitive
    remainder sequence (prs_gcd)."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(cofactor_pairs(), st.integers(-3, 3), st.integers(-3, 3))
    # the retry pair below, and a pair with no common factor
    @example(([-2, 2, 1], [1, 2, -1, 2]), 0, 0)
    @example(([1, 1], [1, -1]), 2, -1)
    def test_matches_the_oracles(self, pair, low_a, low_b):
        a, b = pair
        qa, qb = _cofactors(a, b)
        # a / b = qa / qb with coprime qa and qb
        assert _times(a, qb) == _times(b, qa)
        assert poly_gcd(HalfLaurent(dict(enumerate(qa))), HalfLaurent(dict(enumerate(qb)))) == 1
        # the same cofactors, up to sign, as the exact quotients by the PRS gcd
        g = prs_gcd(a, b)
        want = (_exact_quotient(a, g), _exact_quotient(b, g))
        assert (qa, qb) in (want, tuple([-x for x in q] for q in want))
        # and the canonical form of Euclid
        num = HalfLaurent({low_a + k: x for k, x in enumerate(a)})
        den = HalfLaurent({low_b + k: x for k, x in enumerate(b)})
        assert RatFunc._from_integers((low_a, a), (low_b, b)) == from_ratio_by_euclid(num, den)

    def test_retry_at_twice_the_width(self, monkeypatch):
        # every coefficient lies below 2^7, so the first width is 8; the integer
        # gcd at 2^8 decodes to a false common factor, and 16 bits certify gcd 1
        widths = []

        def spy(low, x, width, step=1):
            widths.append(width)
            return unpack(low, x, width, step)

        unpack = halfq._unpack
        monkeypatch.setattr(halfq, "_unpack", spy)
        a, b = [-2, 2, 1], [1, 2, -1, 2]
        assert _cofactors(a, b) == (a, b)
        assert widths == [8, 16]


# rational points at which both sides of an identity are evaluated
POINTS = (Fraction(2, 3), Fraction(-5, 2), Fraction(7))
SCALARS = st.integers(-5, 5) | st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5))


def _at(x, v: Fraction) -> Fraction:
    """The value at v of a number, a HalfLaurent or a RatFunc."""
    if isinstance(x, RatFunc):
        return v**x.shift * _at(x.num, v) / _at(x.den, v)
    if isinstance(x, HalfLaurent):
        return sum((c * v**p for p, c in x.coeffs.items()), Fraction(0))
    return Fraction(x)


def _assert_canonical(r: RatFunc) -> None:
    if r.is_zero:
        assert (r.num.coeffs, r.den.coeffs, r.shift) == ({}, {0: 1}, 0)
        return
    assert r.den.leading_coefficient() == 1
    assert r.num.valuation() == r.den.valuation() == 0
    assert poly_gcd(r.num, r.den) == HalfLaurent.one()


def _assert_equal_hash_equal(a, b) -> None:
    assert a == b and b == a
    assert hash(a) == hash(b)


class TestOperatorsAtRationalPoints:
    """The public operators of HalfLaurent and RatFunc, both sides evaluated
    at rational v; equal values hash equal, and results stay canonical."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(laurents(), laurents(nonzero=True), laurents(nonzero=True), st.integers(0, 3), SCALARS)
    # a negative shift: num_den moves v^shift into the denominator
    @example(HalfLaurent({0: 1}), HalfLaurent({3: 2, 4: 1}), HalfLaurent({1: 1}), 2, 3)
    # a constant and a polynomial in q
    @example(HalfLaurent({0: 4}), HalfLaurent({0: 2}), HalfLaurent({0: 1, 4: -3}), 0, Fraction(1, 2))
    def test_operators(self, num, den, l, n, c):
        r = RatFunc.from_ratio(num, den)
        top, bottom = r.num_den()
        assert top.is_zero or top.valuation() >= 0
        assert bottom.valuation() >= 0
        differences = c - r, l - r
        quotients = () if r.is_zero else (c / r, l / r)
        for v in POINTS:
            if not _at(r.den, v):
                continue
            rv, lv = _at(r, v), _at(l, v)
            assert _at(l**n, v) == lv**n
            assert _at(c - l, v) == c - lv
            assert sum(l.coefficient(p) * v**p for p in range(-4, 9)) == lv
            assert _at(top, v) / _at(bottom, v) == rv
            assert [_at(x, v) for x in differences] == [c - rv, lv - rv]
            if rv:
                assert [_at(x, v) for x in quotients] == [c / rv, lv / rv]
        for value in (*differences, *quotients):
            _assert_canonical(value)
        # equal values built two ways, and across types
        _assert_equal_hash_equal(HalfLaurent(dict(reversed(l.coeffs.items()))), l)
        _assert_equal_hash_equal(RatFunc.from_ratio(num * l, den * l), r)
        if r.is_laurent:
            _assert_equal_hash_equal(r, r.as_laurent())
        _assert_equal_hash_equal(HalfLaurent({0: c}), c)
        _assert_equal_hash_equal(RatFunc.scalar(c), c)
        in_q = all(p >= 0 and p % 2 == 0 for p in l.coeffs)
        assert l.is_q_polynomial() == RatFunc.from_ratio(l * den, den).is_q_polynomial() == in_q
        assert not (r.is_q_polynomial() and r.den != 1)
        with pytest.raises(ValueError):
            l ** -1
        with pytest.raises(ZeroDivisionError):
            c / RatFunc.zero()


class TestAdams:
    def test_doubles_monomial(self):
        box = DimVector((2, 1))
        s = SlopeSeries.monomial(box, DimVector((1, 0)), RatFunc.v_power(1))
        out = adams(2, s)
        assert out == SlopeSeries.monomial(box, DimVector((2, 0)), RatFunc.q_power(1))

    def test_identity(self):
        rng = random.Random(29)
        s = random_series(rng)
        assert adams(1, s) == s

    def test_truncates_outside_box(self):
        s = SlopeSeries.monomial(BOX22, DimVector((1, 1)), RatFunc.one())
        assert adams(3, s).is_zero

    def test_composition(self):
        rng = random.Random(31)
        box = DimVector((4, 4))
        for _ in range(10):
            s = random_series(rng, box)
            for m, n in [(2, 2), (2, 3), (3, 2)]:
                assert adams(m, adams(n, s)) == adams(m * n, s)


class TestOrdinaryExpLog:
    def test_mutually_inverse(self):
        rng = random.Random(37)
        for _ in range(20):
            s = random_series(rng)
            assert series_log(series_exp(s)) == s

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError):
            series_exp(SlopeSeries.one(BOX22))

    def test_log_needs_unit_constant(self):
        with pytest.raises(ValueError):
            series_log(SlopeSeries.zero(BOX22))


class TestPlethystic:
    def test_geometric_series(self):
        # Exp of q t^d is the geometric series of q t^d within the box
        box = DimVector((3,))
        d = DimVector((1,))
        s = SlopeSeries.monomial(box, d, RatFunc.q_power(1))
        expected = SlopeSeries(
            box,
            {
                DimVector((0,)): RatFunc.one(),
                DimVector((1,)): RatFunc.q_power(1),
                DimVector((2,)): RatFunc.q_power(2),
                DimVector((3,)): RatFunc.q_power(3),
            },
        )
        assert pleth_exp(s) == expected

    def test_exp_of_zero(self):
        assert pleth_exp(SlopeSeries.zero(BOX22)) == SlopeSeries.one(BOX22)

    def test_multiplicative_on_independent_monomials(self):
        a = SlopeSeries.monomial(BOX22, DimVector((1, 0)), RatFunc.v_power(1))
        b = SlopeSeries.monomial(BOX22, DimVector((0, 1)), RatFunc.v_power(-2) * 3)
        assert pleth_exp(a + b) == pleth_exp(a) * pleth_exp(b)

    def test_log_of_geometric_series(self):
        box = DimVector((3,))
        d = DimVector((1,))
        s = SlopeSeries.monomial(box, d, RatFunc.q_power(1))
        assert pleth_log(pleth_exp(s)) == s

    def test_log_of_one(self):
        assert pleth_log(SlopeSeries.one(BOX22)).is_zero

    def test_roundtrip_random(self):
        rng = random.Random(41)
        for _ in range(25):
            s = random_series(rng)
            assert pleth_log(pleth_exp(s)) == s

    def test_multiplicativity_random(self):
        rng = random.Random(43)
        for _ in range(10):
            a = random_series(rng)
            b = random_series(rng)
            assert pleth_exp(a + b) == pleth_exp(a) * pleth_exp(b)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: _mobius(0), ValueError, "mobius is defined for positive integers"),
        (lambda: HalfLaurent.zero().valuation(), ValueError, "valuation of the zero polynomial"),
        (lambda: HalfLaurent.zero().degree(), ValueError, "degree of the zero polynomial"),
        (lambda: HalfLaurent.one().stretched(0), ValueError, "stretch factor must be positive"),
        (lambda: RatFunc.one().stretched(0), ValueError, "stretch factor must be positive"),
        (
            lambda: RatFunc.from_ratio(HalfLaurent.one(), HalfLaurent.zero()),
            ZeroDivisionError,
            "rational function with zero denominator",
        ),
        (
            lambda: RatFunc.from_ratio(HalfLaurent.one(), HalfLaurent({0: 1, 2: -1})).as_laurent(),
            ValueError,
            "rational function has a nontrivial denominator",
        ),
    ],
)
def test_refusals(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind and str(exc.value) == message
