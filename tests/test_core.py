import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from rank_oracle import rational_rank

import quivermoduli.core as core_module

from quivermoduli import (
    BoxGuardExceeded,
    DeformationVerdict,
    DimVector,
    HalfLaurent,
    LunaType,
    MarkedPartition,
    PreconditionError,
    Quiver,
    Stability,
    box_iter,
    build_example,
    complete_bipartite,
    determinantal,
    eta_factorization,
    is_coprime,
    is_indivisible,
    kronecker_general,
    levi_adjoint,
    moduli_dim,
    normalize_stability,
    point_config_closed_form,
    point_config_local_data,
    point_configurations,
    rank_one_smallness_report,
    skew_rank,
    slope,
    symmetric_on_kernel,
)
from quivermoduli.core import _integer_rank, _weight_blocks, check_box, sub_box
from quivermoduli.strata import SmallnessReport, StratumRecord


def kronecker(m, n=0):
    return Quiver(("i", "j"), ((0, m), (n, 0)))


def complete_with_loops(l):
    return Quiver.from_matrix([[1] * l for _ in range(l)])


def bipartite22():
    # sources i1, i2 and sinks j1, j2, one arrow for every source-sink pair
    arrows = [
        [0, 0, 1, 1],
        [0, 0, 1, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    return Quiver.from_matrix(arrows)


class TestEulerForm:
    def test_no_arrows_reduces_to_dot_product(self):
        q = Quiver.from_matrix([[0, 0], [0, 0]])
        assert q.euler_form(DimVector((1, 1)), DimVector((1, 1))) == 2

    def test_two_kronecker(self):
        q = kronecker(2)
        assert q.euler_form(DimVector((1, 1)), DimVector((1, 1))) == 0

    def test_complete_three_vertex_with_loops(self):
        q = complete_with_loops(3)
        d = DimVector((1, 1, 1))
        assert q.euler_form(d, d) == -6

    def test_dimension_mismatch(self):
        q = kronecker(2)
        with pytest.raises(ValueError):
            q.euler_form(DimVector((1, 1, 1)), DimVector((1, 1)))

    def test_matches_definitional_double_sum(self):
        # loops and asymmetric arrows, zero vectors included
        rng = random.Random(11)
        zeros = 0
        for _ in range(300):
            n = rng.randint(1, 6)

            def draw(p):
                return [rng.randrange(1, 4) if rng.random() < p else 0 for _ in range(n)]

            a = [draw(0.6) for _ in range(n)]
            q = Quiver.from_matrix(a)
            d, e = DimVector(tuple(draw(0.7))), DimVector(tuple(draw(0.7)))
            zeros += d.is_zero or e.is_zero
            expected = sum(d[i] * e[i] for i in range(n)) - sum(
                a[i][j] * d[i] * e[j] for i in range(n) for j in range(n)
            )
            assert q.euler_form(d, e) == expected
            with pytest.raises(ValueError):
                q.euler_form(d, DimVector(e.coords + (1,)))
            with pytest.raises(ValueError):
                q.euler_form(DimVector(d.coords + (0,)), e)
        assert zeros >= 10

    def test_bilinearity(self):
        rng = random.Random(7)
        q = Quiver.from_matrix([[1, 2, 0], [0, 0, 3], [1, 0, 0]])
        for _ in range(50):
            a = rng.randrange(0, 4)
            d = DimVector(tuple(rng.randrange(0, 4) for _ in range(3)))
            e = DimVector(tuple(rng.randrange(0, 4) for _ in range(3)))
            f = DimVector(tuple(rng.randrange(0, 4) for _ in range(3)))
            left = q.euler_form(a * d + e, f)
            assert left == a * q.euler_form(d, f) + q.euler_form(e, f)
            right = q.euler_form(f, a * d + e)
            assert right == a * q.euler_form(f, d) + q.euler_form(f, e)


class TestAntisymForm:
    def test_symmetric_quiver_vanishes(self):
        q = kronecker(2, 2)
        rng = random.Random(3)
        for _ in range(20):
            d = DimVector(tuple(rng.randrange(0, 5) for _ in range(2)))
            e = DimVector(tuple(rng.randrange(0, 5) for _ in range(2)))
            assert q.antisym_form(d, e) == 0

    @pytest.mark.parametrize("m,n", [(1, 0), (3, 1), (2, 5)])
    def test_kronecker_units(self, m, n):
        q = kronecker(m, n)
        assert q.antisym_form(DimVector((1, 0)), DimVector((0, 1))) == n - m

    def test_alternating(self):
        q = Quiver.from_matrix([[1, 2, 0], [0, 0, 3], [1, 0, 0]])
        rng = random.Random(11)
        for _ in range(20):
            d = DimVector(tuple(rng.randrange(0, 4) for _ in range(3)))
            assert q.antisym_form(d, d) == 0

    def test_bipartite_closed_form(self):
        q = bipartite22()
        rng = random.Random(5)
        for _ in range(30):
            e = DimVector(tuple(rng.randrange(0, 4) for _ in range(4)))
            f = DimVector(tuple(rng.randrange(0, 4) for _ in range(4)))
            sources_e, sinks_e = e[0] + e[1], e[2] + e[3]
            sources_f, sinks_f = f[0] + f[1], f[2] + f[3]
            assert q.antisym_form(e, f) == sources_f * sinks_e - sources_e * sinks_f


class TestSkewRank:
    def test_symmetric_is_zero(self):
        assert skew_rank(kronecker(2, 2)) == 0
        assert skew_rank(complete_with_loops(3)) == 0

    def test_kronecker31(self):
        assert skew_rank(kronecker(3, 1)) == 2

    def test_bipartite(self):
        assert skew_rank(bipartite22()) == 2

    def test_even_and_bounded(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randrange(1, 5)
            q = Quiver.from_matrix(
                [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
            )
            r = skew_rank(q)
            assert r % 2 == 0
            assert r <= n

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.integers(-9, 9), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2)
        .map(lambda upper: (n, upper))
    ))
    def test_random_skew_matrices_match_fraction_elimination(self, problem):
        # the quiver with arrows[i][j] = max(0, -S[i][j]) has skew matrix S
        n, upper = problem
        skew = [[0] * n for _ in range(n)]
        entries = iter(upper)
        for i in range(n):
            for j in range(i + 1, n):
                skew[i][j] = next(entries)
                skew[j][i] = -skew[i][j]
        q = Quiver.from_matrix([[max(0, -x) for x in row] for row in skew])
        assert q.skew_matrix() == tuple(map(tuple, skew))
        assert skew_rank(q) == rational_rank(skew)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(st.integers(-5, 5), min_size=cols, max_size=cols), max_size=6)
    ))
    def test_integer_rank_matches_fraction_elimination(self, rows):
        # rectangular and rank-deficient matrices too: skipped columns keep the division exact
        assert _integer_rank(rows) == rational_rank(rows)


class TestSlope:
    def test_balanced(self):
        assert slope(Stability((1, -1)), DimVector((1, 1))) == 0

    def test_fraction(self):
        assert slope(Stability((1, -1)), DimVector((2, 1))) == Fraction(1, 3)

    def test_zero_stability(self):
        assert slope(Stability((0, 0)), DimVector((3, 4))) == 0

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            slope(Stability((1, -1)), DimVector((0, 0)))


class TestIndivisible:
    def test_examples(self):
        assert is_indivisible(DimVector((1, 1)))
        assert not is_indivisible(DimVector((2, 2)))
        assert is_indivisible(DimVector((2, 3)))

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            is_indivisible(DimVector((0, 0)))


class TestCoprime:
    def test_examples(self):
        assert is_coprime(Stability((1, -1)), DimVector((1, 1)))
        assert not is_coprime(Stability((0, 0)), DimVector((1, 1)))
        assert not is_coprime(Stability((1, -1)), DimVector((2, 2)))

    def test_unit_vector_always_coprime(self):
        assert is_coprime(Stability((0, 0)), DimVector((1, 0)))

    def test_box_guard(self):
        with pytest.raises(BoxGuardExceeded):
            is_coprime(Stability((1, -1)), DimVector((100, 100)), max_box=100)


class TestBox:
    def test_guard_stops_counting_early(self):
        with pytest.raises(BoxGuardExceeded) as exc:
            check_box(itertools.repeat(1), 10**6)
        assert exc.value.allowed == 10**6

    @pytest.mark.parametrize("s", [(0,), (2, 0, 1), (1, 1, 1, 1)])
    def test_sub_box_is_the_box_walk(self, s):
        assert list(sub_box(s)) == [e.coords for e in box_iter(DimVector(s))]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 5), st.integers(-7, 7)), min_size=1, max_size=5),
        st.sampled_from([1, 2, 3, 7, 4096]),
    )
    def test_weight_blocks_are_the_box_weights(self, columns, block):
        s, weights = tuple(c for c, _ in columns), tuple(w for _, w in columns)
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(core_module, "_BLOCK_CELLS", block)
            blocks = list(_weight_blocks(weights, s))
        assert [w for b in blocks for w in b] == [
            sum(a * b for a, b in zip(weights, t)) for t in sub_box(s)
        ]
        # an inner box of at most block cells, or the last coordinate alone
        assert max(map(len, blocks)) <= max(block, s[-1] + 1)


def symmetric_by_kernel_basis(q, theta):
    """Oracle: the skew form vanishes on every pair of an integer kernel basis.

    For theta = 0 the basis is the unit vectors; otherwise it is
    theta_p e_i - theta_i e_p for i != p, p the first nonzero weight.
    """
    n = q.n
    nonzero = [i for i in range(n) if theta[i] != 0]
    if not nonzero:
        basis = [[int(k == i) for k in range(n)] for i in range(n)]
    else:
        p = nonzero[0]
        basis = []
        for i in range(n):
            if i != p:
                vec = [0] * n
                vec[i], vec[p] = theta[p], -theta[i]
                basis.append(vec)
    skew = q.skew_matrix()
    return all(
        sum(skew[i][j] * a[i] * b[j] for i in range(n) for j in range(n)) == 0
        for a in basis
        for b in basis
    )


def ext_gcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0, by the extended Euclid."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def eta_by_gcd_combination(q, theta):
    """Oracle for eta_factorization on a form symmetric on the kernel.

    Builds an integer v with theta(v) = g = gcd(theta) by the extended
    Euclid over the weights, takes eta = S v / g, and reduces it modulo
    theta so that it vanishes at theta's first nonzero weight.
    """
    n = q.n
    if theta.is_zero:
        return (Fraction(0),) * n
    g, v = 0, [0] * n
    for i, w in enumerate(theta.weights):
        g, s, t = ext_gcd(g, w)
        v = [s * c for c in v]
        v[i] = t
    eta = [Fraction(sum(a * b for a, b in zip(row, v)), g) for row in q.skew_matrix()]
    p = next(i for i in range(n) if theta[i] != 0)
    scale = eta[p] / theta[p]
    return tuple(x - scale * w for x, w in zip(eta, theta.weights))


# Q_P is symmetric on the kernel of THETA_P and Q_N is not; both have
# theta_0 = 0, so the first nonzero weight is at vertex 1, and gcd(theta) = 2
Q_P = Quiver.from_matrix([[1, 0, 1], [1, 0, 2], [0, 2, 0]])
Q_N = Quiver.from_matrix([[1, 0, 1], [2, 0, 2], [0, 2, 0]])
THETA_P = Stability((0, 2, -2))


def random_kernel_problem(rng):
    """A quiver on 1-6 vertices and a stability, theta = 0 one time in four.

    Half of the quivers are built to be symmetric on the kernel: their
    skew form is eta (x) theta - theta (x) eta for a random eta, plus
    arbitrary symmetric arrows.
    """
    n = rng.randint(1, 6)
    theta = [0] * n if rng.random() < 0.25 else [rng.randint(-3, 3) for _ in range(n)]
    arrows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.5:
        eta = [rng.randint(-2, 2) for _ in range(n)]
        # arrows[j][i] - arrows[i][j] becomes eta_i theta_j - theta_i eta_j
        arrows = [
            [
                min(arrows[i][j], arrows[j][i]) + max(0, theta[i] * eta[j] - eta[i] * theta[j])
                for j in range(n)
            ]
            for i in range(n)
        ]
    return Quiver.from_matrix(arrows), Stability(tuple(theta))


class TestSymmetricOnKernel:
    def test_matches_kernel_basis_oracle(self):
        rng = random.Random(2024)
        verdicts = set()
        for _ in range(400):
            q, theta = random_kernel_problem(rng)
            verdict = symmetric_on_kernel(q, theta)
            assert verdict == symmetric_by_kernel_basis(q, theta)
            if q.n > 1:
                verdicts.add((verdict, theta.is_zero))
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_symmetric_quiver(self):
        for theta in [Stability((0, 0)), Stability((1, -1)), Stability((2, 3))]:
            assert symmetric_on_kernel(kronecker(2, 2), theta)

    def test_one_kronecker_zero_stability(self):
        assert not symmetric_on_kernel(kronecker(1), Stability((0, 0)))

    @pytest.mark.parametrize("m,n", [(1, 0), (3, 1), (2, 5)])
    def test_kronecker_balanced_stability(self, m, n):
        assert symmetric_on_kernel(kronecker(m, n), Stability((1, -1)))

    def test_first_weight_zero(self):
        assert symmetric_on_kernel(Q_P, THETA_P) and symmetric_by_kernel_basis(Q_P, THETA_P)
        assert not symmetric_on_kernel(Q_N, THETA_P)
        assert not symmetric_by_kernel_basis(Q_N, THETA_P)

    def test_zero_stability_iff_skew_vanishes(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randrange(1, 5)
            q = Quiver.from_matrix(
                [[rng.randrange(0, 3) for _ in range(n)] for _ in range(n)]
            )
            zero = Stability((0,) * n)
            skew_zero = all(x == 0 for row in q.skew_matrix() for x in row)
            assert symmetric_on_kernel(q, zero) == skew_zero


def _eta_identity_holds(q, theta, eta):
    skew = q.skew_matrix()
    n = q.n
    return all(
        skew[i][j] == eta[i] * theta[j] - theta[i] * eta[j]
        for i in range(n)
        for j in range(n)
    )


class TestEtaFactorization:
    def test_symmetric_quiver_gives_zero(self):
        eta = eta_factorization(kronecker(2, 2), Stability((1, -1)))
        assert all(x == 0 for x in eta)

    @pytest.mark.parametrize("m,n", [(1, 0), (3, 1), (2, 5)])
    def test_kronecker(self, m, n):
        q = kronecker(m, n)
        theta = Stability((1, -1))
        eta = eta_factorization(q, theta)
        assert _eta_identity_holds(q, theta, eta)
        # the result differs from (m - n, 0) by a rational multiple of theta
        diff = (eta[0] - (m - n), eta[1] - 0)
        assert diff[0] * theta[1] == diff[1] * theta[0]

    def test_bipartite(self):
        q = bipartite22()
        theta = Stability((2, 2, -2, -2))
        eta = eta_factorization(q, theta)
        assert _eta_identity_holds(q, theta, eta)

    def test_star_quiver_rational_weights(self):
        # four sources feeding one sink, imprimitive stability
        arrows = [[0] * 5 for _ in range(5)]
        for k in range(4):
            arrows[k][4] = 1
        q = Quiver.from_matrix(arrows)
        theta = Stability((2, 2, 2, 2, -4))
        eta = eta_factorization(q, theta)
        assert _eta_identity_holds(q, theta, eta)
        assert any(x.denominator > 1 for x in eta)

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(PreconditionError):
            eta_factorization(kronecker(3, 1), Stability((0, 0)))
        with pytest.raises(PreconditionError):
            eta_factorization(Q_N, THETA_P)

    def test_matches_gcd_combination_oracle(self):
        rng = random.Random(2024)
        checked = pivots = 0
        for _ in range(400):
            q, theta = random_kernel_problem(rng)
            if symmetric_by_kernel_basis(q, theta):
                eta = eta_factorization(q, theta)
                assert eta == eta_by_gcd_combination(q, theta)
                assert _eta_identity_holds(q, theta, eta)
                checked += 1
                pivots += theta[0] == 0 and not theta.is_zero
        assert checked > 200 and pivots > 10

    def test_first_weight_zero(self):
        # the pivot is vertex 1, where the canonical eta vanishes
        eta = eta_factorization(Q_P, THETA_P)
        assert eta == (Fraction(1, 2), Fraction(0), Fraction(0))
        assert eta == eta_by_gcd_combination(Q_P, THETA_P)
        assert _eta_identity_holds(Q_P, THETA_P, eta)


class TestNormalizeStability:
    def test_already_vanishing(self):
        theta = Stability((1, -1))
        assert normalize_stability(theta, DimVector((1, 1))) == theta

    def test_shift(self):
        assert normalize_stability(Stability((1, 0)), DimVector((1, 1))) == Stability((1, -1))

    def test_collapse(self):
        assert normalize_stability(Stability((1, 1)), DimVector((1, 1))) == Stability((0, 0))

    def test_vanishes_and_preserves_comparisons(self):
        rng = random.Random(23)
        for _ in range(20):
            theta = Stability(tuple(rng.randrange(-3, 4) for _ in range(3)))
            d = DimVector(tuple(rng.randrange(0, 3) for _ in range(3)))
            if d.is_zero:
                continue
            tnorm = normalize_stability(theta, d)
            assert tnorm(d) == 0
            mu = slope(theta, d)
            for e in box_iter(d):
                if e.is_zero:
                    continue
                assert (slope(theta, e) > mu) == (slope(tnorm, e) > 0)


class TestModuliDim:
    def test_two_kronecker_line(self):
        assert moduli_dim(kronecker(2), DimVector((1, 1))) == 1

    def test_complete_three_vertex(self):
        assert moduli_dim(complete_with_loops(3), DimVector((1, 1, 1))) == 7

    def test_point(self):
        assert moduli_dim(Quiver.from_matrix([[0]]), DimVector((1,))) == 0


class TestNoTruncation:
    """The value types take integers and string vertex names only; anything else is refused, not coerced."""

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: DimVector((1.5, 2)), id="DimVector-float"),
            pytest.param(lambda: DimVector(("3",)), id="DimVector-str"),
            pytest.param(lambda: DimVector((Fraction(3, 1),)), id="DimVector-Fraction"),
            pytest.param(lambda: Stability((0.7, -1.2)), id="Stability-float"),
            pytest.param(lambda: Stability((Fraction(1, 2), 0)), id="Stability-Fraction"),
            pytest.param(lambda: Stability(("1", "-1")), id="Stability-str"),
            pytest.param(lambda: Quiver(("i", "j"), ((0, 1.9), (0, 0))), id="Quiver-float"),
            pytest.param(lambda: Quiver(("i", "j"), ((0, "2"), (0, 0))), id="Quiver-str"),
            pytest.param(lambda: Quiver((0, 1), ((0, 1), (0, 0))), id="Quiver-int-names"),
            pytest.param(lambda: Quiver((1, "1"), ((0, 1), (0, 0))), id="Quiver-mixed-names"),
            pytest.param(lambda: LunaType(((DimVector((1, 0)), 2.9),)), id="LunaType-float"),
            pytest.param(lambda: LunaType(((DimVector((1, 0)), Fraction(2)),)), id="LunaType-Fraction"),
            pytest.param(lambda: MarkedPartition((1.5, 1), 0), id="MarkedPartition-parts"),
            pytest.param(lambda: MarkedPartition((2, 1), 0.0), id="MarkedPartition-marked"),
            pytest.param(lambda: determinantal(2.0, 1), id="determinantal"),
            pytest.param(lambda: point_configurations(4, "2"), id="point_configurations"),
            pytest.param(lambda: levi_adjoint(Fraction(3)), id="levi_adjoint-torus"),
            pytest.param(lambda: levi_adjoint(2, 1.0), id="levi_adjoint-blocks"),
            pytest.param(lambda: complete_bipartite((1.5,), (1,)), id="complete_bipartite"),
            pytest.param(lambda: kronecker_general(2, 1.9), id="kronecker_general"),
        ],
    )
    def test_non_integers_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_integers_pass_unchanged(self):
        assert DimVector((1, 2)).coords == (1, 2)
        assert Stability((0, -1)).weights == (0, -1)
        assert Quiver(("i", "j"), ((0, 1), (0, 0))).arrows == ((0, 1), (0, 0))
        assert LunaType(((DimVector((1, 0)), 2),)).parts == ((DimVector((1, 0)), 2),)
        assert MarkedPartition((2, 1), 1).marked == 1
        assert determinantal(2, 1).dim_vector == DimVector((1, 1))


_TYPE = LunaType(((DimVector((1, 0)), 2),))
RECORDS = [
    DimVector((1, 2)),
    Stability((1, -1)),
    Quiver(("i", "j"), ((0, 2), (0, 0))),
    _TYPE,
    MarkedPartition((2, 1), 1),
    DeformationVerdict(False, (("tie", DimVector((1, 0))),)),
    StratumRecord(_TYPE, False, None, None, None, None, Fraction(1, 2), 3, Fraction(-1, 2)),
    SmallnessReport("Certified", (), (), False, True, True),
    rank_one_smallness_report(2, 3),
]


class TestQuiverRefusals:
    @pytest.mark.parametrize(
        "vertices, arrows, message",
        [
            (("a", "a"), ((0, 1), (0, 0)), "vertex names must be unique"),
            (("a", "b"), ((0, 1),), "arrow matrix must be square with side = number of vertices"),
            (("a", "b"), ((0, 1), (0,)), "arrow matrix must be square with side = number of vertices"),
            (("a", "b"), ((0, -1), (0, 0)), "arrow multiplicities must be nonnegative"),
        ],
    )
    def test_refused(self, vertices, arrows, message):
        with pytest.raises(ValueError) as exc:
            Quiver(vertices, arrows)
        assert str(exc.value) == message


class TestRecords:
    """The value and record types behave as the frozen dataclasses they replace."""

    @pytest.mark.parametrize("value", RECORDS, ids=lambda value: type(value).__name__)
    def test_dataclass_behaviour(self, value):
        cls, names = type(value), type(value).__slots__
        fields = tuple(getattr(value, name) for name in names)
        # the dataclass hash, so set and dict orders stay where they were
        assert hash(value) == hash(fields)
        assert cls(*fields) == value and cls(**dict(zip(names, fields))) == value
        assert value != fields and value != object()
        shown = ", ".join(f"{name}={field!r}" for name, field in zip(names, fields))
        assert repr(value) == f"{cls.__name__}({shown})"
        assert copy.deepcopy(value) == value and pickle.loads(pickle.dumps(value)) == value
        with pytest.raises(AttributeError):
            setattr(value, names[0], fields[0])
        with pytest.raises(AttributeError):
            value.other = 1
        with pytest.raises(TypeError):
            cls(*fields, None)
        with pytest.raises(TypeError):
            cls(*fields[1:])

    def test_equal_fields_of_another_type_differ(self):
        assert DimVector((1, 2)) != Stability((1, 2))
        assert len({DimVector((1, 2)), DimVector([1, 2]), Stability((1, 2))}) == 2


class TestValueRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: DimVector((1, -1)), "dimension vector must be nonnegative, got (1, -1)"),
            (lambda: DimVector((1,)).leq(DimVector((1, 1))), "dimension vectors of different lengths"),
            (
                lambda: Stability((1,))(DimVector((1, 1))),
                "stability and dimension vector of different lengths",
            ),
            (lambda: Stability((1,)) + Stability((1, 1)), "stabilities of different lengths"),
            (lambda: is_coprime(Stability((0, 0)), DimVector((0, 0))), "zero dimension vector"),
            (
                lambda: normalize_stability(Stability((1, 0)), DimVector((0, 0))),
                "zero dimension vector",
            ),
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize(
        "build, error",
        [
            pytest.param(lambda b: DimVector((b, 2)), TypeError, id="DimVector"),
            pytest.param(lambda b: Stability((b, 1)), TypeError, id="Stability"),
            pytest.param(lambda b: Quiver.from_matrix([[0, b], [1, 0]]), TypeError, id="Quiver"),
            pytest.param(lambda b: HalfLaurent({b: 1}), TypeError, id="HalfLaurent-power"),
            pytest.param(lambda b: HalfLaurent({1: b}), TypeError, id="HalfLaurent-coefficient"),
            pytest.param(lambda b: LunaType(((DimVector((1, 1)), b),)), TypeError, id="LunaType"),
            pytest.param(lambda b: MarkedPartition((b, 1), 0), TypeError, id="MarkedPartition-part"),
            pytest.param(lambda b: MarkedPartition((2, 1), b), TypeError, id="MarkedPartition-marked"),
            pytest.param(lambda b: determinantal(2, b), TypeError, id="determinantal"),
            pytest.param(lambda b: point_configurations(b, 2), TypeError, id="point_configurations"),
            pytest.param(lambda b: levi_adjoint(b), TypeError, id="levi_adjoint-torus"),
            pytest.param(lambda b: levi_adjoint(2, b), TypeError, id="levi_adjoint-blocks"),
            pytest.param(lambda b: complete_bipartite((1,), (b,)), TypeError, id="complete_bipartite"),
            pytest.param(lambda b: kronecker_general(1, b), TypeError, id="kronecker_general"),
            pytest.param(lambda b: rank_one_smallness_report(b, 2), TypeError, id="rank_one_report"),
            pytest.param(
                lambda b: point_config_local_data(2, b, MarkedPartition((1,), 0)),
                TypeError,
                id="point_config_local_data",
            ),
            pytest.param(
                lambda b: point_config_closed_form(b, 2, MarkedPartition((1,), 0)),
                TypeError,
                id="point_config_closed_form",
            ),
            # build_example reports a parameter that is not an integer as ValueError
            pytest.param(lambda b: build_example("levi_adjoint", [b]), ValueError, id="example"),
            pytest.param(lambda b: build_example("bipartite", [1, 1, 2, b]), ValueError, id="bipartite"),
        ],
    )
    def test_booleans_refused(self, build, error, flag):
        # True is an int to operator.index, but no count, coordinate or power
        with pytest.raises(error) as exc:
            build(flag)
        if error is TypeError:
            assert "bool" in str(exc.value)
        else:
            assert str(exc.value).endswith(f"parameters must be integers, got {flag}")

    def test_eta_factorization_at_zero_stability(self):
        # at theta = 0 any eta satisfies the identity; the canonical one is 0
        q = Quiver.from_matrix([[1, 2], [2, 0]])
        assert eta_factorization(q, Stability((0, 0))) == (Fraction(0), Fraction(0))
