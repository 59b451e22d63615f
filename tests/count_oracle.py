"""Test oracle for thin moduli: semistable representations counted over F_q.

With the all-ones dimension vector every arrow is one scalar, and a
subrepresentation is a vertex set S that no nonzero arrow leaves. So a
representation is θ'-semistable when every S with θ'(S) > 0 has a nonzero
arrow from S to its complement. ``count_semistable_thin`` enumerates all
q^(number of arrows) scalar tuples and keeps the semistable ones. For a
coprime θ' they are stable, and the torus (F_q^*)^n acts on them through
its quotient by the scalars, freely, so the moduli space has the count
divided by (q - 1)^(n - 1) points. This is for small quivers only; the
package counts the same points by the Harder-Narasimhan recursion
(``betti_coprime``).
"""

from __future__ import annotations

from itertools import combinations, product

from quivermoduli import Quiver, Stability


def count_semistable_thin(quiver: Quiver, theta_prime: Stability, q: int) -> int:
    """F_q-points of the moduli of θ'-semistables of dimension (1, ..., 1)."""
    n = quiver.n
    arrows = [
        (p, r) for p in range(n) for r in range(n) for _ in range(quiver.arrows[p][r])
    ]
    # for each destabilizing S, the arrows that leave it
    leaving = [
        [k for k, (p, r) in enumerate(arrows) if p in s and r not in s]
        for size in range(1, n)
        for s in map(set, combinations(range(n), size))
        if sum(theta_prime.weights[i] for i in s) > 0
    ]
    total = sum(
        all(any(scalars[k] for k in exits) for exits in leaving)
        for scalars in product(range(q), repeat=len(arrows))
    )
    assert total % (q - 1) ** (n - 1) == 0
    return total // (q - 1) ** (n - 1)
