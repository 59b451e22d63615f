"""Test oracle for dt_invariants: the plethystic logarithm of the HN series.

``dt_by_pleth_log`` builds the generating series
1 + sum (-v)^(form(e,e)) p_e t^e over the nonzero exponents e <= d of
normalized weight zero as a ``SlopeSeries`` of canonical ``RatFunc``
coefficients, takes ``pleth_log`` of it and rescales by v^-1 - v. Every
product canonicalizes with a polynomial gcd, so this costs seconds on boxes
of a few dozen cells; the package computes the same coefficients in
Gaussian-normalized integer coordinates.
"""

from __future__ import annotations

from quivermoduli import (
    DimVector,
    Quiver,
    RatFunc,
    SlopeSeries,
    Stability,
    box_iter,
    normalize_stability,
    p_poly,
    pleth_log,
)


def dt_by_pleth_log(q: Quiver, theta: Stability, d: DimVector) -> dict[DimVector, RatFunc]:
    """The DT invariant at every nonzero e <= d of normalized weight zero."""
    tnorm = normalize_stability(theta, d)
    exponents = [e for e in box_iter(d) if not e.is_zero and tnorm(e) == 0]
    terms = {DimVector((0,) * len(d)): RatFunc.one()}
    for e in exponents:
        # slope(tnorm, e) = 0, so p_poly's partial-sum condition is tnorm > 0
        se = q.euler_form(e, e)
        terms[e] = RatFunc.v_power(se) * (-1 if se % 2 else 1) * p_poly(q, e, tnorm)
    dt_series = pleth_log(SlopeSeries(d, terms)) * (RatFunc.v_power(-1) - RatFunc.v_power(1))
    return {e: dt_series.coefficient(e) for e in exponents}
