"""Exact arithmetic in the variable v with v^2 = q.

Two layers over fractions.Fraction on an integer layer, all exact:

* ``HalfLaurent``: sparse Laurent polynomials in v. Working in v instead
  of q avoids fractional exponents; a power of q is an even power of v.
* ``RatFunc``: rational functions in v kept in a canonical form
  (v^shift * num / den with num, den of valuation zero, coprime, den
  monic), so structural equality coincides with field equality.
* integer polynomials, in two forms:

  - packed ints (``_pack``, ``_unpack``): a polynomial evaluated at a power
    of 2 (Kronecker substitution), so a product is one product of Python
    ints. The HN recursion and the DT log of ``invariants`` run on them.
  - dense (valuation, coefficient list) pairs, into which ``_unpack``
    decodes each result once; ``invariants`` finishes them by list
    operations and one exact division (``_exact_quotient``) or one
    heuristic gcd (``_cofactors``: one integer gcd of packed values),
    and ``RatFunc.from_ratio`` reads Fraction dicts into them by ``_dense``.
    The dict product with a shift and a sign, the dict packing at any step
    and the remainder-sequence gcd are oracles in tests/.

The module imports nothing from the package. The box-truncated series
built on ``RatFunc`` live in ``series``.

All values are treated as immutable: every operation returns a fresh
object, so instances can be shared freely.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index, sub
from typing import Mapping, Union

Scalar = Union[int, Fraction]


def _mobius(n: int) -> int:
    """Moebius function by trial factorization; n stays tiny here."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return result


def _mul(a: Mapping[int, Scalar], b: Mapping[int, Scalar]) -> dict[int, Scalar]:
    """Product of two Laurent polynomials given as {v-power: coefficient}."""
    out: dict[int, Scalar] = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            out[p1 + p2] = out.get(p1 + p2, 0) + c1 * c2
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials in v


class HalfLaurent:
    """Sparse Laurent polynomial in v; v^2 represents q.

    Stored as a map from (possibly negative) v-power to a nonzero
    rational coefficient, so map equality is polynomial equality. Only the
    constructor drops zeros; every operation returns through it.

    >>> x = HalfLaurent.q_power(2) + HalfLaurent.q_power(3)
    >>> x.pretty()
    'q^2 + q^3'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for power, c in coeffs.items():
                power = index(power)
                if not isinstance(c, (int, Fraction)):
                    raise TypeError(f"a coefficient must be an int or a Fraction, not {type(c).__name__}")
                if c:
                    clean[power] = Fraction(c)
        self.coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict[int, Fraction]) -> "HalfLaurent":
        """coeffs as they are: int powers to nonzero Fractions, neither checked nor copied."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

    @classmethod
    def zero(cls) -> "HalfLaurent":
        return cls()

    @classmethod
    def one(cls) -> "HalfLaurent":
        return cls({0: 1})

    @classmethod
    def monomial(cls, power: int, coeff: Scalar = 1) -> "HalfLaurent":
        return cls({power: coeff})

    @classmethod
    def q_power(cls, k: int) -> "HalfLaurent":
        return cls({2 * k: 1})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def valuation(self) -> int:
        if not self.coeffs:
            raise ValueError("valuation of the zero polynomial")
        return min(self.coeffs)

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial")
        return max(self.coeffs)

    def leading_coefficient(self) -> Fraction:
        return self.coeffs[self.degree()]

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs.get(power, Fraction(0))

    def shifted(self, k: int) -> "HalfLaurent":
        """Multiplication by v^k."""
        return HalfLaurent._trusted({p + k: c for p, c in self.coeffs.items()})

    def stretched(self, n: int) -> "HalfLaurent":
        """Substitution v -> v^n."""
        if n < 1:
            raise ValueError("stretch factor must be positive")
        return HalfLaurent._trusted({p * n: c for p, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, HalfLaurent):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == HalfLaurent({0: other}).coeffs
        return NotImplemented

    def __hash__(self):
        # a constant equals its number, so it hashes as that number
        if not self.coeffs.keys() - {0}:
            return hash(self.coeffs.get(0, 0))
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "HalfLaurent":
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, 0) + c
        return HalfLaurent(out)

    __radd__ = __add__

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent._trusted({p: -c for p, c in self.coeffs.items()})

    def __sub__(self, other) -> "HalfLaurent":
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "HalfLaurent":
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "HalfLaurent":
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        return HalfLaurent(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HalfLaurent":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial is not polynomial")
        return math.prod([self] * n, start=HalfLaurent.one())

    def is_q_polynomial(self) -> bool:
        """True when this is a polynomial in q = v^2 (even nonnegative powers)."""
        return all(p >= 0 and p % 2 == 0 for p in self.coeffs)

    def q_dict(self) -> dict[int, Fraction]:
        """Coefficients indexed by q-power; requires a polynomial in q."""
        if not self.is_q_polynomial():
            raise ValueError("not a polynomial in q")
        return {p // 2: c for p, c in self.coeffs.items()}

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for power in sorted(self.coeffs):
            coeff = self.coeffs[power]
            if power == 0:
                term = str(coeff)
            else:
                if power % 2 == 0:
                    e = power // 2
                    base = "q" if e == 1 else f"q^{e}"
                else:
                    base = f"q^({power}/2)"
                if coeff == 1:
                    term = base
                elif coeff == -1:
                    term = f"-{base}"
                else:
                    term = f"{coeff}*{base}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            if term.startswith("-"):
                out += " - " + term[1:]
            else:
                out += " + " + term
        return out

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"HalfLaurent({self.pretty()})"


def _as_laurent(x):
    if isinstance(x, HalfLaurent):
        return x
    if isinstance(x, (int, Fraction)):
        return HalfLaurent({0: x})
    return NotImplemented


# ---------------------------------------------------------------------------
# integer polynomials, dense: (low, c) is sum_k c[k] v^(low + k), no zero at an end of c
Dense = tuple[int, list[int]]


def _dense(l: Mapping[int, int]) -> Dense:
    """The dense form of {v-power: int}; zeros may be given."""
    powers = [p for p, c in l.items() if c]
    low = min(powers, default=0)
    out = [0] * (max(powers, default=low - 1) - low + 1)
    for p in powers:
        out[p - low] = l[p]
    return low, out


def _trimmed(low: int, coeffs: list[int]) -> Dense:
    """The dense form of sum_k coeffs[k] v^(low + k), zeros at either end allowed."""
    nonzero = [k for k, c in enumerate(coeffs) if c]
    if not nonzero:
        return 0, []
    return low + nonzero[0], coeffs[nonzero[0] : nonzero[-1] + 1]


def _one_minus(f: Dense, k: int) -> Dense:
    """(1 - v^k) f, for k != 0."""
    low, c = f
    if not c:
        return f
    a, b = c + [0] * abs(k), [0] * abs(k) + c
    return (low, list(map(sub, a, b))) if k > 0 else (low + k, list(map(sub, b, a)))


def _stretched(f: Dense, m: int) -> Dense:
    """f(v^m), for m >= 1."""
    low, coeffs = f
    out = [0] * (m * len(coeffs) - m + 1)
    out[::m] = coeffs
    return low * m, out


def _primitive(a: list[int]) -> list[int]:
    g = math.gcd(*a)
    return a if g == 1 else [c // g for c in a]


def _exact_quotient(a: list[int], g: list[int]) -> list[int] | None:
    """a / g with integer coefficients, or None if the long division leaves a remainder."""
    a = list(a)
    dg, lg = len(g) - 1, g[-1]
    quot = [0] * (len(a) - dg)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(a[k + dg], lg)
        if r:
            return None
        if c:
            quot[k] = c
            for i in range(dg):
                a[k + i] -= c * g[i]
    return None if any(a[:dg]) else quot


# ---------------------------------------------------------------------------
# integer polynomials, packed (Kronecker substitution): the polynomial
# sum_k c_k y^(low + k) in y = v^(-step) is kept as (low, x), where
# x = sum_k c_k 2^(width k) is its value at y = 2^width. That evaluation is a
# ring map, so packed sums and products are exact whatever width is; a value
# decodes uniquely when every |c_k| < 2^(width - 1). width is a multiple of 8.


def _bias(n: int, width: int) -> int:
    """sum_{k < n} 2^(width - 1) 2^(width k): added to a packed value, it makes every digit nonnegative."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * n, "little")


def _pack(f: Dense, width: int) -> tuple[int, int]:
    """(low, x) of a dense f in y = v^-1; big-endian, the lowest power of v is the top digit."""
    low, coeffs = f
    size, half = width // 8, 1 << (width - 1)
    raw = b"".join((half + c).to_bytes(size, "big") for c in coeffs)
    return -(low + len(coeffs) - 1), int.from_bytes(raw, "big") - _bias(len(coeffs), width)


def _unpack(low: int, x: int, width: int, step: int = 1) -> Dense:
    """The dense form of a packed (low, x) in y = v^(-step).

    Any int x decodes, into balanced digits c in [-2^(width - 1),
    2^(width - 1)), so packed coefficients in that range come back. With n =
    (bit_length(|x|) + 1) // width + 1, |x| < 2^(n width - 2), so x +
    _bias(n) fits n digits, each c held as c + 2^(width - 1) in [0, 2^width)
    with no borrow, and each is read off as bytes.
    """
    size, half = width // 8, 1 << (width - 1)
    n = (abs(x).bit_length() + 1) // width + 1
    # big-endian, so from the top digit, y^(low + n - 1), down: from the lowest power of v^step up
    raw = (x + _bias(n, width)).to_bytes(n * size, "big")
    digits = [int.from_bytes(raw[k : k + size], "big") - half for k in range(0, len(raw), size)]
    return _stretched(_trimmed(-low - n + 1, digits), step)


def _cofactors(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """(a / g, b / g) for g a gcd of two integer polynomials with nonzero ends.

    The heuristic gcd (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989)
    at x = 2^W, W a multiple of 8 with every |a_k|, |b_k| < x / 2: g is the
    primitive part of the balanced digits G of h = gcd(a(x), b(x)), the
    packed values. Certificate: the roots of the primitive gcd D are roots
    of a, so |r| < 1 + max|a_k| <= x / 2, and a nonconstant integer factor f
    of D has |f(x)| > (x / 2)^deg f >= x / 2. If g divides a and b, D = g f
    (Gauss), and D(x) | h = cont(G) g(x) gives f(x) | cont(G) <= x / 2, so
    f = +-1; a constant g, which a constant side gives, means D = 1. Else W
    doubles, and that ends: h = |D(x)| k, where k divides the resultant of
    the coprime cofactors a / D and b / D (or the constant one), free of x;
    once every coefficient of k D is below x / 2, G = k D.
    """
    width = 8 * (max(map(abs, a + b)).bit_length() // 8 + 1)
    while True:
        h = math.gcd(_pack((0, a), width)[1], _pack((0, b), width)[1])
        g = _primitive(_unpack(0, h, width)[1])
        if (qa := _exact_quotient(a, g)) is not None and (qb := _exact_quotient(b, g)) is not None:
            return qa, qb
        width *= 2


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Rational function in v in canonical form.

    Stored as v^shift * num / den where num and den are polynomials in v
    with nonzero constant coefficient, gcd(num, den) = 1 and den monic.
    The zero function is 0/1 with shift 0. Canonical form makes
    structural equality agree with equality in the field Q(v).
    """

    __slots__ = ("num", "den", "shift")

    def __init__(self, num: HalfLaurent, den: HalfLaurent, shift: int):
        # trusted constructor: arguments must already be canonical
        self.num = num
        self.den = den
        self.shift = shift

    @classmethod
    def from_ratio(cls, num: HalfLaurent, den: HalfLaurent) -> "RatFunc":
        """num / den for arbitrary Laurent polynomials, canonicalized, scaled to integers first."""
        scale = math.lcm(*(c.denominator for c in (*num.coeffs.values(), *den.coeffs.values())))
        a, b = (
            {p: c.numerator * (scale // c.denominator) for p, c in l.coeffs.items()} for l in (num, den)
        )
        return cls._from_integers(_dense(a), _dense(b))

    @classmethod
    def _from_integers(cls, num: Dense, den: Dense) -> "RatFunc":
        """num / den for dense integer Laurent polynomials, canonicalized: the gcd
        is divided out in integers, and one rational scaling makes den monic."""
        (low_a, a), (low_b, b) = num, den
        if not b:
            raise ZeroDivisionError("rational function with zero denominator")
        if not a:
            return cls.zero()
        a, b = _cofactors(a, b)
        lc = b[-1]
        return cls(
            HalfLaurent._trusted({p: Fraction(c, lc) for p, c in enumerate(a) if c}),
            HalfLaurent._trusted({p: Fraction(c, lc) for p, c in enumerate(b) if c}),
            low_a - low_b,
        )

    @classmethod
    def from_laurent(cls, l: HalfLaurent) -> "RatFunc":
        return cls.from_ratio(l, HalfLaurent.one())

    @classmethod
    def scalar(cls, c: Scalar) -> "RatFunc":
        return cls.from_laurent(HalfLaurent({0: c}))

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(HalfLaurent.zero(), HalfLaurent.one(), 0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(HalfLaurent.one(), HalfLaurent.one(), 0)

    @classmethod
    def q_power(cls, k: int) -> "RatFunc":
        return cls(HalfLaurent.one(), HalfLaurent.one(), 2 * k)

    @classmethod
    def v_power(cls, k: int) -> "RatFunc":
        return cls(HalfLaurent.one(), HalfLaurent.one(), k)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.shift == other.shift
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        # a Laurent polynomial equals its HalfLaurent, so it hashes as that
        return hash(self.as_laurent() if self.is_laurent else (self.shift, self.num, self.den))

    def __add__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        num = self.num.shifted(self.shift) * other.den + other.num.shifted(other.shift) * self.den
        return RatFunc.from_ratio(num, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, self.shift)

    def __sub__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        num = (self.num * other.num).shifted(self.shift + other.shift)
        return RatFunc.from_ratio(num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFunc.from_ratio(self.den, self.num.shifted(self.shift))

    def __truediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        result = RatFunc.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def stretched(self, n: int) -> "RatFunc":
        """Substitution v -> v^n; canonical form is preserved."""
        if n < 1:
            raise ValueError("stretch factor must be positive")
        return RatFunc(self.num.stretched(n), self.den.stretched(n), self.shift * n)

    @property
    def is_laurent(self) -> bool:
        return self.den.coeffs == {0: 1}

    def as_laurent(self) -> HalfLaurent:
        if not self.is_laurent:
            raise ValueError("rational function has a nontrivial denominator")
        return self.num.shifted(self.shift)

    def is_q_polynomial(self) -> bool:
        return self.is_laurent and self.as_laurent().is_q_polynomial()

    def num_den(self) -> tuple[HalfLaurent, HalfLaurent]:
        """Numerator and denominator polynomials, v^shift moved into one of them."""
        if self.shift >= 0:
            return self.num.shifted(self.shift), self.den
        return self.num, self.den.shifted(-self.shift)

    def pretty(self) -> str:
        if self.is_zero:
            return "0"
        if self.is_laurent:
            return self.as_laurent().pretty()
        num, den = self.num_den()
        return f"({num.pretty()})/({den.pretty()})"

    def __str__(self) -> str:
        return self.pretty()

    def __repr__(self) -> str:
        return f"RatFunc({self.pretty()})"


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.scalar(x)
    if isinstance(x, HalfLaurent):
        return RatFunc.from_laurent(x)
    return NotImplemented
