"""Test oracles for luna_types and stratum_records.

``luna_types_by_dimvectors`` is the decomposition-type walk in
DimVector arithmetic: it compares parts with ``DimVector.leq``, subtracts
DimVectors, recurses once per candidate and builds a LunaType for every
type. The package walks the candidates as packed integers, recursing once
per part, so the two must agree in value and in order.

``stratum_records_per_call`` walks the same luna_types and fills each
StratumRecord field straight from its formula, calling ``q.euler_form``
afresh for every value, with no table shared between types. The package
builds each type's Gram key along its walk from one table of the form per
call, and computes the local data once per key instead.

``type_count`` counts the types without listing them, by a DP over the
box; the package lists them and refuses the type past its budget, so the
count judges both the length of the list and where the refusal falls.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from quivermoduli import (
    DimVector,
    LunaType,
    NegativeArrowCountError,
    Quiver,
    Stability,
    StratumRecord,
    box_iter,
    luna_types,
    normalize_stability,
)

HALF = Fraction(1, 2)


def luna_types_by_dimvectors(q: Quiver, d: DimVector, theta: Stability) -> list[LunaType]:
    q._check(d)
    tnorm = normalize_stability(theta, d)
    candidates = [e for e in box_iter(d) if not e.is_zero and tnorm(e) == 0]
    candidates.sort(key=lambda e: e.coords, reverse=True)
    out: list[LunaType] = []

    def extend(idx: int, remaining: DimVector, chosen: tuple) -> None:
        if remaining.is_zero:
            out.append(LunaType(chosen))
            return
        if idx == len(candidates):
            return
        part = candidates[idx]
        if part.leq(remaining):
            top = min(remaining[i] // part[i] for i in range(len(part)) if part[i] > 0)
            for mult in range(top, 0, -1):
                extend(idx + 1, remaining - mult * part, chosen + ((part, mult),))
        extend(idx + 1, remaining, chosen)

    extend(0, d, ())
    return out


def _record(q: Quiver, d: DimVector, xi: LunaType, theta_prime: Stability) -> StratumRecord:
    parts = [p for p, _ in xi.parts]
    codim = 1 - q.euler_form(d, d) - sum(1 - q.euler_form(p, p) for p in parts)
    bad = [p for p in parts if q.euler_form(p, p) > 1]
    if bad:
        reason = (
            f"part {bad[0]} has negative expected stable moduli dimension "
            f"({1 - q.euler_form(bad[0], bad[0])})"
        )
        return StratumRecord(xi, True, reason, None, None, None, None, codim, None)
    s = len(parts)
    matrix = [
        [(1 if k == l else 0) - q.euler_form(parts[k], parts[l]) for l in range(s)]
        for k in range(s)
    ]
    negative = [(k, l) for k in range(s) for l in range(s) if matrix[k][l] < 0]
    if negative:
        k, l = negative[0]
        reason = str(NegativeArrowCountError(k, l, matrix[k][l]))
        return StratumRecord(xi, True, reason, None, None, None, None, codim, None)
    lq = Quiver(tuple(f"u{k + 1}" for k in range(s)), tuple(map(tuple, matrix)))
    ld = DimVector(tuple(m for _, m in xi.parts))
    ls = Stability(tuple(theta_prime(p) for p in parts))
    if any(matrix[k][l] != matrix[l][k] for k in range(s) for l in range(s)):
        return StratumRecord(
            xi, True, "local quiver is not symmetric", lq, ld, ls, None, codim, None
        )
    count = xi.summand_count
    fiber = (
        -HALF * q.euler_form(d, d)
        + HALF * sum(q.euler_form(p, p) * m for p, m in xi.parts)
        - count
        + 1
    )
    margin = -HALF * sum((1 - q.euler_form(p, p)) * (m - 1) for p, m in xi.parts) - HALF * (
        count - 1
    )
    return StratumRecord(xi, False, None, lq, ld, ls, fiber, codim, margin)


def stratum_records_per_call(
    q: Quiver, d: DimVector, theta: Stability, theta_prime: Stability
) -> tuple[StratumRecord, ...]:
    return tuple(_record(q, d, xi, theta_prime) for xi in luna_types(q, d, theta))


def type_count(d: tuple[int, ...], parts: list[tuple[int, ...]], limit: int) -> int:
    """The number of types: the coefficient of t^d in prod_e 1 / (1 - t^e).

    One DP over the box [0, d] with cells as mixed-radix integers, ordered
    lexicographically; part e adds count[c - e] to count[c] for every cell
    c >= e, in ascending order, so e may repeat. The work is the sum of
    |box(d - e)| over the parts. The count at d only grows, so the DP stops
    with a count above limit as soon as it passes it; small parts raise it
    fastest, so pass the parts in ascending order to stop early.
    """
    strides, size = [], 1
    for c in reversed(d):
        strides.append(size)
        size *= c + 1
    strides.reverse()
    count = [1] + [0] * (size - 1)
    for e in parts:
        # the cells of box(d - e), as offsets in ascending order
        offsets = [0]
        for c, ce, stride in zip(d, e, strides):
            if c > ce:
                offsets = [o + k for o in offsets for k in range(0, (c - ce) * stride + 1, stride)]
        base = sum(map(operator.mul, e, strides))
        for o in offsets:
            count[base + o] += count[o]
        if count[-1] > limit:
            break
    return count[-1]
