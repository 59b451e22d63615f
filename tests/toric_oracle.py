"""Test oracle for the IC polynomial of a torus quotient, by toric geometry.

Let Q be a symmetric quiver, d the all-ones dimension vector and theta = 0.
The torus T acts on Rep(Q, d) with trivial weight on the loops and weight
e_j - e_i on an arrow i -> j, so Rep // T is C^l (l loops) times the affine
toric variety of the cycle cone C: the nonnegative circulations in the space
indexed by the other arrows. C is generated by the simple directed cycles,
written as 0/1 vectors on the arrows.

The facets of C are among the faces {m_a = 0} of C, which are generated by
the cycles that avoid a; f_0 counts the distinct faces of rank r - 1, where
r = rank C. For r <= 4 the toric g-polynomial of C is 1 + (f_0 - r) t: the
cone is over a polytope of dimension at most 3, whose g_2 vanishes (Stanley,
"Generalized h-vectors, intersection cohomology of toric varieties, and
related results", 1987). A conical variety has IC_c = q^dim g(q^-1), so

    IC_c = q^(l + r) + (f_0 - r) q^(l + r - 1).

Every rank comes from tests/rank_oracle.py, none from the package.
"""

from __future__ import annotations

from rank_oracle import rational_rank


def simple_cycles(arrows) -> list[tuple[int, ...]]:
    """The simple directed cycles of length >= 2, as 0/1 vectors on the non-loop arrows.

    The arrows are numbered row by row of the matrix, parallel arrows one by one.
    """
    n = len(arrows)
    first, count = {}, 0
    for i in range(n):
        for j in range(n):
            if i != j:
                first[i, j], count = count, count + arrows[i][j]
    cycles = []

    def close(path: list[int]) -> None:
        # one cycle per choice of a parallel arrow at every step
        choices = [[]]
        for i, j in zip(path, path[1:] + path[:1]):
            choices = [c + [first[i, j] + k] for c in choices for k in range(arrows[i][j])]
        for chosen in choices:
            cycles.append(tuple(int(a in chosen) for a in range(count)))

    def extend(path: list[int]) -> None:
        # each cycle is listed once, from its smallest vertex
        for j in range(path[0] + 1, n):
            if j not in path and arrows[path[-1]][j]:
                if arrows[j][path[0]]:
                    close(path + [j])
                extend(path + [j])

    for start in range(n):
        extend([start])
    return cycles


def cycle_cone(arrows) -> tuple[int, int]:
    """(r, f_0): the rank of the cycle cone and its number of facets."""
    cycles = simple_cycles(arrows)
    r = rational_rank(cycles)
    arrow_count = len(cycles[0]) if cycles else 0
    faces = set()
    for a in range(arrow_count):
        avoiding = [c for c in cycles if not c[a]]
        if rational_rank(avoiding) == r - 1:
            faces.add(frozenset(avoiding))
    return r, len(faces)


def toric_ic(arrows) -> dict[int, int]:
    """IC_c of Rep // T as {power of q: coefficient}; only for a cone of rank at most 4."""
    loops = sum(arrows[i][i] for i in range(len(arrows)))
    r, f0 = cycle_cone(arrows)
    if r > 4:
        raise ValueError(f"the cycle cone has rank {r}; g_2 may be nonzero above rank 4")
    top = loops + r
    return {top: 1, top - 1: f0 - r} if f0 > r else {top: 1}
