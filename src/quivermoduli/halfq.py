"""Exact arithmetic in the variable v with v^2 = q.

Three layers, all over fractions.Fraction and therefore exact:

* ``HalfLaurent``: sparse Laurent polynomials in v. Working in v instead
  of q avoids fractional exponents; a power of q is an even power of v.
* ``RatFunc``: rational functions in v kept in a canonical form
  (v^shift * num / den with num, den of valuation zero, coprime, den
  monic), so structural equality coincides with field equality.
* ``SlopeSeries``: series truncated to a dimension-vector box, with
  ``RatFunc`` coefficients. Exponents leaving the box are dropped, which
  realizes the quotient of the full series ring by the ideal of
  out-of-box exponents; exp/log and the plethystic pair below are exact
  on this quotient.

The plethystic exponential is the multiplicative exponential determined
by Exp(c t^e) = 1/(1 - c t^e) on monomials; it is computed through the
substitution operators ``adams`` and inverted by the Moebius-weighted
plethystic logarithm.

All values are treated as immutable: every operation returns a fresh
object, so instances can be shared freely.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .core import DimVector

Scalar = Union[int, Fraction]


def _mobius(n: int) -> int:
    """Moebius function by trial factorization; n stays tiny here."""
    if n < 1:
        raise ValueError("mobius is defined for positive integers")
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


# ---------------------------------------------------------------------------
# Laurent polynomials in v


class HalfLaurent:
    """Sparse Laurent polynomial in v; v^2 represents q.

    Stored as a map from (possibly negative) v-power to a nonzero
    rational coefficient, so map equality is polynomial equality.

    >>> x = HalfLaurent.q_power(2) + HalfLaurent.q_power(3)
    >>> x.pretty()
    'q^2 + q^3'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, Scalar] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for power, c in coeffs.items():
                c = Fraction(c)
                if c:
                    clean[int(power)] = c
        self.coeffs = clean

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
        return HalfLaurent({p + k: c for p, c in self.coeffs.items()})

    def stretched(self, n: int) -> "HalfLaurent":
        """Substitution v -> v^n."""
        if n < 1:
            raise ValueError("stretch factor must be positive")
        return HalfLaurent({p * n: c for p, c in self.coeffs.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, HalfLaurent):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == HalfLaurent({0: other}).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other) -> "HalfLaurent":
        other = _as_laurent(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            v = out.get(p, Fraction(0)) + c
            if v:
                out[p] = v
            else:
                out.pop(p, None)
        return HalfLaurent(out)

    __radd__ = __add__

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent({p: -c for p, c in self.coeffs.items()})

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
        out: dict[int, Fraction] = {}
        for p1, c1 in self.coeffs.items():
            for p2, c2 in other.coeffs.items():
                p = p1 + p2
                v = out.get(p, Fraction(0)) + c1 * c2
                if v:
                    out[p] = v
                else:
                    out.pop(p, None)
        return HalfLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "HalfLaurent":
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial is not polynomial")
        result = HalfLaurent.one()
        for _ in range(n):
            result = result * self
        return result

    def is_q_polynomial(self) -> bool:
        """True when this is a polynomial in q = v^2 (even nonnegative powers)."""
        return all(p >= 0 and p % 2 == 0 for p in self.coeffs)

    def q_dict(self) -> dict[int, Fraction]:
        """Coefficients indexed by q-power; requires a polynomial in q."""
        if not self.is_q_polynomial():
            raise ValueError("not a polynomial in q")
        return {p // 2: c for p, c in self.coeffs.items()}

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs.values())

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
# polynomial division and gcd (nonnegative powers only)


def _poly_divmod(a: HalfLaurent, b: HalfLaurent) -> tuple[HalfLaurent, HalfLaurent]:
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


def _poly_gcd(a: HalfLaurent, b: HalfLaurent) -> HalfLaurent:
    """Monic gcd by the Euclidean algorithm over the rationals."""
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a.is_zero:
        return a
    lc = a.leading_coefficient()
    if lc != 1:
        a = a * (Fraction(1) / lc)
    return a


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
        """num / den for arbitrary Laurent polynomials, canonicalized."""
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            return cls(HalfLaurent.zero(), HalfLaurent.one(), 0)
        shift = num.valuation() - den.valuation()
        a = num.shifted(-num.valuation())
        b = den.shifted(-den.valuation())
        g = _poly_gcd(a, b)
        if not g.is_zero and g.degree() > 0:
            a, _ = _poly_divmod(a, g)
            b, _ = _poly_divmod(b, g)
        lc = b.leading_coefficient()
        if lc != 1:
            inv = Fraction(1) / lc
            a = a * inv
            b = b * inv
        return cls(a, b, shift)

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
        return hash((self.shift, self.num, self.den))

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
        return self.den == HalfLaurent.one()

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


# ---------------------------------------------------------------------------
# box-truncated series


class SlopeSeries:
    """Series with dimension-vector exponents, truncated to a box.

    Terms are indexed by exponents 0 <= e <= box with RatFunc
    coefficients; the constant term sits at the zero exponent. Products
    drop exponents leaving the box.
    """

    __slots__ = ("box", "terms")

    def __init__(self, box: DimVector, terms: Mapping[DimVector, RatFunc] | None = None):
        self.box = box
        clean: dict[DimVector, RatFunc] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != len(box):
                    raise ValueError("exponent length does not match the box")
                if not e.leq(box):
                    raise ValueError(f"exponent {e} outside the box {box}")
                c = _as_ratfunc(c)
                if not c.is_zero:
                    clean[e] = c
        self.terms = clean

    @classmethod
    def zero(cls, box: DimVector) -> "SlopeSeries":
        return cls(box)

    @classmethod
    def one(cls, box: DimVector) -> "SlopeSeries":
        return cls(box, {DimVector((0,) * len(box)): RatFunc.one()})

    @classmethod
    def monomial(cls, box: DimVector, e: DimVector, coeff) -> "SlopeSeries":
        return cls(box, {e: coeff})

    def coefficient(self, e: DimVector) -> RatFunc:
        return self.terms.get(e, RatFunc.zero())

    @property
    def constant_term(self) -> RatFunc:
        return self.coefficient(DimVector((0,) * len(self.box)))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _match(self, other: "SlopeSeries") -> None:
        if self.box != other.box:
            raise ValueError("series over different boxes")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SlopeSeries):
            return NotImplemented
        return self.box == other.box and self.terms == other.terms

    def __add__(self, other: "SlopeSeries") -> "SlopeSeries":
        self._match(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, RatFunc.zero()) + c
            if v.is_zero:
                out.pop(e, None)
            else:
                out[e] = v
        return SlopeSeries(self.box, out)

    def __neg__(self) -> "SlopeSeries":
        return SlopeSeries(self.box, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SlopeSeries") -> "SlopeSeries":
        return self + (-other)

    def __mul__(self, other) -> "SlopeSeries":
        if isinstance(other, SlopeSeries):
            self._match(other)
            out: dict[DimVector, RatFunc] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    if not e.leq(self.box):
                        continue
                    v = out.get(e, RatFunc.zero()) + c1 * c2
                    if v.is_zero:
                        out.pop(e, None)
                    else:
                        out[e] = v
            return SlopeSeries(self.box, out)
        scalar = _as_ratfunc(other)
        if scalar is NotImplemented:
            return NotImplemented
        return SlopeSeries(self.box, {e: c * scalar for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        inner = ", ".join(
            f"t^{e}: {c.pretty()}" for e, c in sorted(self.terms.items(), key=lambda kv: kv[0].coords)
        )
        return f"SlopeSeries(box={self.box}, {{{inner}}})"


def _nilpotency_bound(box: DimVector) -> int:
    # any product of more than total(box) nonconstant terms leaves the box
    return box.total


def series_exp(s: SlopeSeries) -> SlopeSeries:
    """Ordinary exponential of a series with zero constant term."""
    if not s.constant_term.is_zero:
        raise ValueError("exp needs a zero constant term")
    result = SlopeSeries.one(s.box)
    term = SlopeSeries.one(s.box)
    for k in range(1, _nilpotency_bound(s.box) + 1):
        term = term * s * Fraction(1, k)
        if term.is_zero:
            break
        result = result + term
    return result


def series_log(s: SlopeSeries) -> SlopeSeries:
    """Ordinary logarithm of a series with constant term 1."""
    if s.constant_term != RatFunc.one():
        raise ValueError("log needs constant term 1")
    m = s - SlopeSeries.one(s.box)
    result = SlopeSeries.zero(s.box)
    power = SlopeSeries.one(s.box)
    for k in range(1, _nilpotency_bound(s.box) + 1):
        power = power * m
        if power.is_zero:
            break
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


def adams(n: int, s: SlopeSeries) -> SlopeSeries:
    """Substitute v -> v^n in coefficients and e -> n*e in exponents.

    Exponents pushed outside the box are dropped.
    """
    if n < 1:
        raise ValueError("adams operation needs n >= 1")
    if n == 1:
        return s
    out: dict[DimVector, RatFunc] = {}
    for e, c in s.terms.items():
        ne = n * e
        if ne.leq(s.box):
            out[ne] = c.stretched(n)
    return SlopeSeries(s.box, out)


def _adams_range(box: DimVector) -> int:
    # n*e <= box for some nonzero e forces n <= max coordinate of the box
    return max(box.coords) if box.coords and max(box.coords) >= 1 else 1


def pleth_exp(s: SlopeSeries) -> SlopeSeries:
    """Plethystic exponential: exp of the sum of adams(n, s)/n.

    Satisfies Exp(c t^e) = 1/(1 - c t^e) on monomials within the box and
    turns sums into products.
    """
    if not s.constant_term.is_zero:
        raise ValueError("plethystic exp needs a zero constant term")
    arg = SlopeSeries.zero(s.box)
    for n in range(1, _adams_range(s.box) + 1):
        arg = arg + adams(n, s) * Fraction(1, n)
    return series_exp(arg)


def pleth_log(s: SlopeSeries) -> SlopeSeries:
    """Plethystic logarithm, the inverse of pleth_exp on the box."""
    if s.constant_term != RatFunc.one():
        raise ValueError("plethystic log needs constant term 1")
    inner = series_log(s)
    result = SlopeSeries.zero(s.box)
    for n in range(1, _adams_range(s.box) + 1):
        mu = _mobius(n)
        if mu:
            result = result + adams(n, inner) * Fraction(mu, n)
    return result
