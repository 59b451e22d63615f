"""Test oracle for the separating-covector search of generic_deformation.

``search_eta_by_enumeration`` walks every integer covector by increasing
sup-norm, ties broken lexicographically with coordinates ordered
0 < 1 < -1 < 2 < -2 < ..., and returns the first that vanishes on d and
on no critical vector. That is (2b + 1)^n candidates at sup-norm b; the
package solves eta(d) = 0 for one coordinate and enumerates the others.
"""

from __future__ import annotations

from itertools import product

from quivermoduli import DimVector, EtaSearchExhausted, Stability


def _coord_key(x: int) -> tuple[int, int]:
    return (abs(x), 0 if x >= 0 else 1)


def search_eta_by_enumeration(
    d: DimVector, critical: list[DimVector], max_norm: int
) -> Stability:
    n = len(d)
    for bound in range(1, max_norm + 1):
        values = sorted(range(-bound, bound + 1), key=_coord_key)
        for combo in product(values, repeat=n):
            if max(abs(x) for x in combo) != bound:
                continue
            eta = Stability(combo)
            if eta(d) != 0:
                continue
            if all(eta(e) != 0 for e in critical):
                return eta
    raise EtaSearchExhausted(max_norm)
