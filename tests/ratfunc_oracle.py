"""Test oracle for RatFunc.from_ratio: the Euclidean algorithm over the rationals.

``from_ratio_by_euclid`` shifts num and den to valuation zero, divides both
by their monic gcd, found by Euclid with ``Fraction`` coefficients, and
scales den to be monic. The canonical form (coprime, den monic, nonzero
constant terms) is unique, so it must agree structurally with the package,
which reaches the same form through a fraction-free integer gcd.
"""

from __future__ import annotations

from fractions import Fraction

from quivermoduli import HalfLaurent, RatFunc


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
