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
(``betti_coprime``) and the DT route (``ic_poincare_dt``), which
``has_thin_stables`` tells when to expect 0.

``count_semistable_point_configs_f2`` enumerates the semistable 4-tuples
of vectors in F_2^2, the representations of the catalog's points(4, 2).
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


def has_thin_stables(quiver: Quiver, theta: Stability) -> bool:
    """Whether a theta-stable of dimension (1, ..., 1) exists. The one with
    every arrow nonzero has the fewest subrepresentations, so it is stable
    iff an arrow leaves every proper vertex set S with theta(S) >= 0."""
    n = quiver.n
    return all(
        any(quiver.arrows[i][j] for i in s for j in range(n) if j not in s)
        for size in range(1, n)
        for s in map(set, combinations(range(n), size))
        if sum(theta.weights[i] for i in s) >= 0
    )


def count_semistable_point_configs_f2(weights):
    """Size-2-field count of semistable 4-tuples of vectors in a plane.

    A subrepresentation is a set S of sources together with the span of
    their vectors at the sink; semistability bounds the stability value
    of every such pair by zero.
    """
    def span_dim(vecs):
        basis = []
        for v in vecs:
            w = list(v)
            for b in basis:
                lead = next(i for i, x in enumerate(b) if x)
                if w[lead]:
                    w = [(a + c) % 2 for a, c in zip(w, b)]
            if any(w):
                basis.append(w)
        return len(basis)

    count = 0
    for vs in product(list(product([0, 1], repeat=2)), repeat=4):
        ok = True
        for r in range(1, 5):
            for S in combinations(range(4), r):
                src = sum(weights[k] for k in S)
                if src + weights[4] * span_dim([vs[k] for k in S]) > 0:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count
