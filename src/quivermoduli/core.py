"""Quivers, dimension vectors, stabilities and their bilinear algebra.

A quiver is a finite directed multigraph, stored as an arrow-multiplicity
matrix over an ordered vertex set. Dimension vectors are nonnegative
integer vectors on the vertices, stabilities are integer covectors, and
the homological bilinear form

    form(d, e) = sum_i d_i e_i - sum_{arrows i->j} d_i e_j

drives everything downstream. All arithmetic is exact: rationals are
fractions.Fraction, never floats.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from fractions import Fraction
from itertools import chain, product
from math import gcd

from .errors import BoxGuardExceeded, InternalCheckError, PreconditionError

#: Default cap on the number of cells a box enumeration may visit.
DEFAULT_MAX_BOX = 10**6


class _Record:
    """Immutable value whose fields are its __slots__, in order.

    Like a frozen dataclass: a subclass is built from its fields by position
    or keyword, compares equal only to an instance of its own class with
    equal fields, hashes as the tuple of its fields and shows them in its
    repr. A subclass that validates defines its own __init__ and sets its
    fields with object.__setattr__.
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls):
        # _fields(self) is the tuple of field values; an attrgetter of one
        # name gives the bare value, so that case is wrapped in a 1-tuple
        get = operator.attrgetter(*cls.__slots__)
        if len(cls.__slots__) > 1:
            cls._fields = lambda self: get(self)
        else:
            cls._fields = lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not field by field
        return type(self), self._fields()


class DimVector(_Record):
    """Nonnegative integer vector indexed by the vertices of a quiver."""

    __slots__ = ("coords",)
    coords: tuple[int, ...]

    def __init__(self, coords: tuple[int, ...]):
        coords = tuple(map(operator.index, coords))
        if any(c < 0 for c in coords):
            raise ValueError(f"dimension vector must be nonnegative, got {coords}")
        object.__setattr__(self, "coords", coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i: int) -> int:
        return self.coords[i]

    @property
    def total(self) -> int:
        return sum(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def _match(self, other: "DimVector") -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("dimension vectors of different lengths")

    def leq(self, other: "DimVector") -> bool:
        """Componentwise comparison; this is a partial order."""
        self._match(other)
        return all(a <= b for a, b in zip(self.coords, other.coords))

    def __add__(self, other: "DimVector") -> "DimVector":
        self._match(other)
        return DimVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "DimVector") -> "DimVector":
        self._match(other)
        return DimVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, k: int) -> "DimVector":
        return DimVector(tuple(k * c for c in self.coords))

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


class Stability(_Record):
    """Integer covector on the vertices, evaluated on dimension vectors."""

    __slots__ = ("weights",)
    weights: tuple[int, ...]

    def __init__(self, weights: tuple[int, ...]):
        object.__setattr__(self, "weights", tuple(map(operator.index, weights)))

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights)

    def __getitem__(self, i: int) -> int:
        return self.weights[i]

    @property
    def is_zero(self) -> bool:
        return not any(self.weights)

    def __call__(self, d: DimVector) -> int:
        if len(self.weights) != len(d):
            raise ValueError("stability and dimension vector of different lengths")
        return sum(w * c for w, c in zip(self.weights, d.coords))

    def __add__(self, other: "Stability") -> "Stability":
        if len(self.weights) != len(other.weights):
            raise ValueError("stabilities of different lengths")
        return Stability(tuple(a + b for a, b in zip(self.weights, other.weights)))

    def __neg__(self) -> "Stability":
        return Stability(tuple(-w for w in self.weights))

    def __rmul__(self, k: int) -> "Stability":
        return Stability(tuple(k * w for w in self.weights))

    def __str__(self) -> str:
        return "(" + ", ".join(str(w) for w in self.weights) + ")"


class Quiver(_Record):
    """Finite quiver: ordered vertex names plus an arrow-multiplicity matrix.

    Entry ``arrows[i][j]`` counts arrows from vertex i to vertex j; diagonal
    entries are loops.
    """

    __slots__ = ("vertices", "arrows")
    vertices: tuple[str, ...]
    arrows: tuple[tuple[int, ...], ...]

    def __init__(self, vertices: tuple[str, ...], arrows: tuple[tuple[int, ...], ...]):
        vertices = tuple(vertices)
        if not all(isinstance(v, str) for v in vertices):
            raise TypeError("vertex names must be strings")
        arrows = tuple(tuple(map(operator.index, row)) for row in arrows)
        n = len(vertices)
        if len(set(vertices)) != n:
            raise ValueError("vertex names must be unique")
        if len(arrows) != n or any(len(row) != n for row in arrows):
            raise ValueError("arrow matrix must be square with side = number of vertices")
        if any(a < 0 for row in arrows for a in row):
            raise ValueError("arrow multiplicities must be nonnegative")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arrows", arrows)

    @classmethod
    def from_matrix(cls, arrows, vertices=None) -> "Quiver":
        rows = tuple(tuple(row) for row in arrows)
        if vertices is None:
            vertices = tuple(f"v{i}" for i in range(len(rows)))
        return cls(tuple(vertices), rows)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def is_symmetric(self) -> bool:
        return all(
            self.arrows[i][j] == self.arrows[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def unit(self, i: int) -> DimVector:
        return DimVector(tuple(1 if k == i else 0 for k in range(self.n)))

    def _check(self, d) -> None:
        if len(d) != self.n:
            raise ValueError("vector length does not match the quiver")

    def euler_form(self, d: DimVector, e: DimVector) -> int:
        """Bilinear form sum_i d_i e_i - sum_{arrows i->j} d_i e_j.

        Computed row by row as sum_i d_i (e_i - arrows[i] . e).
        """
        self._check(d)
        self._check(e)
        ec = e.coords
        return sum(
            di * (ei - sum(a * b for a, b in zip(row, ec)))
            for di, ei, row in zip(d.coords, ec, self.arrows)
            if di
        )

    def antisym_form(self, d: DimVector, e: DimVector) -> int:
        """Antisymmetrization euler_form(d, e) - euler_form(e, d)."""
        return self.euler_form(d, e) - self.euler_form(e, d)

    def euler_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of the form on unit vectors: delta_ij - arrows[i][j]."""
        return tuple(
            tuple((1 if i == j else 0) - self.arrows[i][j] for j in range(self.n))
            for i in range(self.n)
        )

    def skew_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of the antisymmetrized form: arrows[j][i] - arrows[i][j]."""
        return tuple(
            tuple(self.arrows[j][i] - self.arrows[i][j] for j in range(self.n))
            for i in range(self.n)
        )

    def __str__(self) -> str:
        return f"quiver on {self.n} vertices ({', '.join(self.vertices)})"


# ---------------------------------------------------------------------------
# box enumeration


def box_size(d: DimVector) -> int:
    size = 1
    for c in d:
        size *= c + 1
    return size


def check_box(coords: Iterable[int], max_box: int | None = DEFAULT_MAX_BOX) -> None:
    """Refuse a box [0, coords] of more than max_box cells; None checks nothing.

    The count stops as soon as it passes max_box, so coords may be endless.
    """
    if max_box is None:
        return
    cells = 1
    for c in coords:
        cells *= c + 1
        if cells > max_box:
            raise BoxGuardExceeded(max_box)


def sub_box(s: tuple[int, ...]):
    """All coordinate tuples 0 <= t <= s in ascending lexicographic order."""
    return product(*(range(c + 1) for c in s))


def box_iter(d: DimVector):
    """All vectors 0 <= e <= d in ascending lexicographic order."""
    return map(DimVector, sub_box(d.coords))


#: Most cells of the inner box that _weight_blocks lists once.
_BLOCK_CELLS = 4096


def _weight_blocks(weights: tuple[int, ...], s: tuple[int, ...]):
    """The weights of the t in sub_box(s), in that order, in lists of consecutive cells.

    The inner box of the last coordinates (at most _BLOCK_CELLS cells, or
    the last coordinate alone) is weighed once, one addition per cell; each
    block is that list shifted by the weight of one cell of the outer box.
    """
    split, inner = len(s), [0]
    while split and (split == len(s) or len(inner) * (s[split - 1] + 1) <= _BLOCK_CELLS):
        split -= 1
        steps = [k * weights[split] for k in range(s[split] + 1)]
        inner = [step + w for step in steps for w in inner]
    outer = weights[:split]
    for t in sub_box(s[:split]):
        base = sum(map(operator.mul, outer, t))
        yield [base + w for w in inner] if base else inner


def _cell_weights(weights: tuple[int, ...], s: tuple[int, ...]):
    """The weight of every t in sub_box(s), in that order; see _weight_blocks."""
    return chain.from_iterable(_weight_blocks(weights, s))


# ---------------------------------------------------------------------------
# slopes, coprimality, normalization


def slope(theta: Stability, d: DimVector) -> Fraction:
    """Stability weight of d divided by its total dimension."""
    if d.is_zero:
        raise ValueError("slope of the zero dimension vector is undefined")
    return Fraction(theta(d), d.total)


def is_indivisible(d: DimVector) -> bool:
    """True when the coordinates of d have greatest common divisor 1."""
    if d.is_zero:
        raise ValueError("zero dimension vector")
    g = 0
    for c in d:
        g = gcd(g, c)
    return g == 1


def is_coprime(theta: Stability, d: DimVector, max_box: int = DEFAULT_MAX_BOX) -> bool:
    """True when no proper nonzero e <= d has the same weight as d.

    Checked on the weights of the full box [0, d], listed in integers by
    _weight_blocks; no DimVector is built.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    check_box(d, max_box)
    target = theta(d)
    # the zero cell weighs 0 and d weighs the target: any other tie is proper
    ties = sum(block.count(target) for block in _weight_blocks(theta.weights, d.coords))
    return ties == 1 + (target == 0)


def normalize_stability(theta: Stability, d: DimVector) -> Stability:
    """A stability vanishing on d that induces the same semistability order.

    Returns theta unchanged when theta(d) = 0; otherwise returns
    total(d) * theta - theta(d) * dim, where dim is the all-ones covector.
    Slopes transform by mu -> total(d) * mu - theta(d), which preserves
    every slope comparison.
    """
    if d.is_zero:
        raise ValueError("zero dimension vector")
    value = theta(d)
    if value == 0:
        return theta
    t = d.total
    return Stability(tuple(t * w - value for w in theta.weights))


def moduli_dim(q: Quiver, d: DimVector) -> int:
    """Expected dimension 1 - form(d, d) of the stable moduli space.

    Only meaningful when stable representations of dimension vector d
    exist; nonemptiness is not checked here.
    """
    return 1 - q.euler_form(d, d)


# ---------------------------------------------------------------------------
# the skew form: its rank, and its restriction to the kernel of a stability


def _integer_rank(rows: list[list[int]]) -> int:
    """Rank over the rationals of an integer matrix, by fraction-free (Bareiss)
    elimination: each entry is a minor of the input, so every division by the
    previous pivot is exact. The Fraction elimination is the test oracle."""
    rows = [list(row) for row in rows]
    rank, prev = 0, 1
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for r in range(rank + 1, len(rows)):
            a = rows[r][col]
            rows[r] = [(p * x - a * y) // prev for x, y in zip(rows[r], top)]
        prev = p
        rank += 1
    return rank


def skew_rank(q: Quiver) -> int:
    """Rank over the rationals of the antisymmetrized form; always even."""
    return _integer_rank(q.skew_matrix())


def symmetric_on_kernel(q: Quiver, theta: Stability) -> bool:
    """Whether the bilinear form is symmetric on the kernel of theta.

    At theta = 0 that is q.is_symmetric. Otherwise let p be the first vertex
    with theta_p != 0 and S the skew matrix. The vectors
    b_i = theta_p e_i - theta_i e_p span the kernel over the rationals, and
    S(b_i, b_j) = theta_p (theta_p S_ij - theta_j S_ip - theta_i S_pj), so the
    form is symmetric there iff theta_p S_ij = theta_j S_ip + theta_i S_pj
    for all i, j: n^2 integer comparisons.
    """
    q._check(theta)
    if theta.is_zero:
        return q.is_symmetric
    t = theta.weights
    p = next(i for i, w in enumerate(t) if w)
    skew = q.skew_matrix()
    top = skew[p]
    return all(
        t[p] * row[j] == t[j] * row[p] + ti * top[j]
        for ti, row in zip(t, skew)
        for j in range(len(t))
    )


def eta_factorization(q: Quiver, theta: Stability) -> tuple[Fraction, ...]:
    """Covector eta splitting the antisymmetrized form through theta.

    Returns rational weights eta with

        antisym_form(d, e) = eta(d) * theta(e) - theta(d) * eta(e)

    for all d, e, which exists exactly when the form is symmetric on the
    kernel of theta. The identity fixes eta up to rational multiples of
    theta; the canonical eta vanishes at the pivot p of symmetric_on_kernel,
    and the identity at (e_i, e_p) then reads eta_i = S_ip / theta_p. At
    theta = 0 the canonical eta is 0.
    """
    q._check(theta)
    if not symmetric_on_kernel(q, theta):
        raise PreconditionError(
            "form is not symmetric on the kernel of the stability; no factorization exists"
        )
    n = q.n
    if theta.is_zero:
        return (Fraction(0),) * n
    skew = q.skew_matrix()
    p = next(i for i, w in enumerate(theta.weights) if w)
    eta = [Fraction(row[p], theta[p]) for row in skew]
    for i in range(n):
        for j in range(n):
            if skew[i][j] != eta[i] * theta[j] - theta[i] * eta[j]:
                raise InternalCheckError("factorization identity failed on unit vectors")
    return tuple(eta)
