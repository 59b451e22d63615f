"""Test oracle for the rank of an integer matrix.

``rational_rank`` is Gauss-Jordan elimination over Fraction: each pivot
row is scaled to a leading 1 and cleared from every other row. The package
eliminates fraction-free in integers (Bareiss), so the two must agree on
every integer matrix.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rank(matrix) -> int:
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
