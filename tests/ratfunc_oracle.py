"""Test oracles for the canonical RatFunc and the polynomial-valued results.

``from_ratio_by_euclid`` shifts num and den to valuation zero, divides both
by their monic gcd, found by Euclid with ``Fraction`` coefficients, and
scales den to be monic. The canonical form (coprime, den monic, nonzero
constant terms) is unique, so it must agree structurally with the package,
which reaches the same form through the heuristic gcd of halfq._cofactors.
``prs_gcd``, a fraction-free gcd by a primitive remainder sequence, is a
second judge of that step.

``require_q_polynomial`` finishes a polynomial-valued result from its
canonical value by three checks: no denominator, only even nonnegative
powers of v, integer coefficients. The package reaches the same verdict and
value by one exact division of integer polynomials, with no gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hypothesis import strategies as st

from quivermoduli import HalfLaurent, InternalCheckError, RatFunc


def integer_laurents(nonzero: bool = False):
    """Integer Laurent polynomials {v-power: int} of either sign and any
    valuation; zero coefficients are kept, so one may sit at either end."""
    polys = st.dictionaries(st.integers(-4, 8), st.integers(-20, 20), max_size=6)
    return polys.filter(lambda l: any(l.values())) if nonzero else polys


def poly_divmod(a: HalfLaurent, b: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(a.coeffs)
    quot: dict[int, Fraction] = {}
    db = b.degree()
    lb = b.coeffs[db]
    while rem and max(rem) >= db:
        dr = max(rem)
        c = rem[dr] / lb
        shift = dr - db
        quot[shift] = c
        for p, cb in b.coeffs.items():
            key = p + shift
            v = rem.get(key, Fraction(0)) - c * cb
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)
    return HalfLaurent(quot), HalfLaurent(rem)


def poly_gcd(a: HalfLaurent, b: HalfLaurent) -> HalfLaurent:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while not b.is_zero:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    return a * (Fraction(1) / a.leading_coefficient())


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return [c // g for c in a]


def prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two nonzero integer polynomials (coefficient
    lists, lowest power first), up to sign.

    Primitive polynomial remainder sequence: each pseudo-remainder is cut
    to its primitive part, so coefficient growth does not compound along
    the sequence. By Gauss's lemma the last nonzero remainder is, up to
    sign, the primitive gcd over the rationals.
    """
    if len(a) < len(b):
        a, b = b, a
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        db, lb = len(b) - 1, b[-1]
        r = list(a)
        while len(r) > db:
            c = r.pop()
            g = math.gcd(c, lb)
            c, m = c // g, lb // g
            shift = len(r) - db
            r = [x * m for x in r]
            for i in range(db):
                r[shift + i] -= c * b[i]
            while r and not r[-1]:
                r.pop()
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def from_ratio_by_euclid(num: HalfLaurent, den: HalfLaurent) -> RatFunc:
    if num.is_zero:
        return RatFunc.zero()
    shift = num.valuation() - den.valuation()
    a = num.shifted(-num.valuation())
    b = den.shifted(-den.valuation())
    g = poly_gcd(a, b)
    a, _ = poly_divmod(a, g)
    b, _ = poly_divmod(b, g)
    inv = Fraction(1) / b.leading_coefficient()
    return RatFunc(a * inv, b * inv, shift)


def require_q_polynomial(value: RatFunc, what: str) -> HalfLaurent:
    """value as a polynomial in q with integer coefficients, else InternalCheckError."""
    if not value.is_laurent:
        raise InternalCheckError(f"{what} has a nontrivial denominator: {value.pretty()}")
    lau = value.as_laurent()
    if not lau.is_q_polynomial():
        raise InternalCheckError(f"{what} is not a polynomial in q: {lau.pretty()}")
    if any(c.denominator != 1 for c in lau.coeffs.values()):
        raise InternalCheckError(f"{what} has non-integer coefficients: {lau.pretty()}")
    return lau
