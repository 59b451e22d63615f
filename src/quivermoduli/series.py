"""Series truncated to a dimension-vector box, with ``RatFunc`` coefficients.

``SlopeSeries`` keeps the terms with exponents 0 <= e <= box; products drop
exponents leaving the box, which realizes the quotient of the full series
ring by the ideal of out-of-box exponents. ``series_exp`` / ``series_log``
and the plethystic pair below are exact on this quotient.

The plethystic exponential is the multiplicative exponential determined
by Exp(c t^e) = 1/(1 - c t^e) on monomials; it is computed through the
substitution operators ``adams`` and inverted by the Moebius-weighted
plethystic logarithm.

The engine does not run this layer: the DT route of ``invariants`` works in
integer Gaussian-normalized coordinates instead. It is the public series
API and the judge of that route in the tests, and ``quivermoduli`` loads it
on first access to one of its names, so the command line never does.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .core import DimVector
from .halfq import RatFunc, _as_ratfunc, _mobius


class SlopeSeries:
    """Series with dimension-vector exponents, truncated to a box.

    Terms are indexed by exponents 0 <= e <= box with RatFunc
    coefficients; the constant term sits at the zero exponent. Products
    drop exponents leaving the box; the constructor drops zero coefficients.
    """

    __slots__ = ("box", "terms")

    def __init__(self, box: DimVector, terms: Mapping[DimVector, RatFunc] | None = None):
        if not isinstance(box, DimVector):
            raise TypeError(f"the box must be a DimVector, not {type(box).__name__}")
        self.box = box
        clean: dict[DimVector, RatFunc] = {}
        if terms:
            for e, c in terms.items():
                if not isinstance(e, DimVector):
                    raise TypeError(f"an exponent must be a DimVector, not {type(e).__name__}")
                if len(e) != len(box):
                    raise ValueError("exponent length does not match the box")
                if not e.leq(box):
                    raise ValueError(f"exponent {e} outside the box {box}")
                r = _as_ratfunc(c)
                if r is NotImplemented:
                    raise TypeError(f"a coefficient must be rational, not {type(c).__name__}")
                if not r.is_zero:
                    clean[e] = r
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
            out[e] = out[e] + c if e in out else c
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
                    if e.leq(self.box):
                        out[e] = out[e] + c1 * c2 if e in out else c1 * c2
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
