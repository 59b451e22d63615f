from collections import Counter
from math import gcd, prod

import pytest
from count_oracle import count_semistable_point_configs_f2, count_semistable_thin, has_thin_stables
from hn_oracle import factorial_by_dicts, hn_problems, mul_add, p_by_decompositions
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from ratfunc_oracle import from_ratio_by_euclid, integer_laurents, require_q_polynomial
from toric_oracle import cycle_cone, toric_ic

from quivermoduli import (
    DimVector,
    HalfLaurent,
    InternalCheckError,
    PreconditionError,
    Quiver,
    RatFunc,
    Stability,
    abelianized_quiver,
    betti_coprime,
    box_iter,
    dt_invariants,
    generic_deformation,
    ic_poincare_dt,
    ic_poincare_resolution,
    is_coprime,
    is_indivisible,
    levi_adjoint,
    moduli_dim,
    normalize_stability,
    p_poly,
    symmetric_on_kernel,
)
from quivermoduli import halfq
from quivermoduli.halfq import _dense, _stretched, _unpack
from quivermoduli.invariants import _binomials, _factorial, _q_polynomial


def kronecker(m, n=0):
    return Quiver(("i", "j"), ((0, m), (n, 0)))


def eval_q(poly, q0):
    """Evaluate a polynomial in q at an integer, exactly."""
    return sum(c * q0 ** (p // 2) for p, c in poly.coeffs.items())


def single_vertex(loops=0):
    return Quiver(("i",), ((loops,),))


def complete_with_loops(l):
    return Quiver.from_matrix([[1] * l for _ in range(l)])


Q_A = Quiver.from_matrix([[0, 2, 1], [1, 0, 3], [2, 1, 0]])


def count_semistable_torus(l, q0):
    """Point count of the deformed l x l torus-quotient moduli over a size-q0 field.

    With deformed stability (l - 1, -1, ..., -1), semistability means that
    every other vertex is reachable from the first along nonzero arrows.
    """
    theta_prime = Stability((l - 1,) + (-1,) * (l - 1))
    return count_semistable_thin(complete_with_loops(l), theta_prime, q0)


def q_poly(coeffs):
    """HalfLaurent from {q_power: coeff}."""
    return HalfLaurent({2 * k: c for k, c in coeffs.items()})


def one_over_q_minus_one():
    return RatFunc.one() / (RatFunc.q_power(1) - 1)


class TestPPoly:
    def test_one_kronecker(self):
        value = p_poly(kronecker(1), DimVector((1, 1)), Stability((1, -1)))
        assert value == one_over_q_minus_one()

    def test_single_vertex(self):
        value = p_poly(single_vertex(), DimVector((1,)), Stability((0,)))
        assert value == one_over_q_minus_one()

    def test_two_kronecker(self):
        value = p_poly(kronecker(2), DimVector((1, 1)), Stability((1, -1)))
        assert value == (RatFunc.q_power(1) + 1) / (RatFunc.q_power(1) - 1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("x", [1, 2, 3])
    @pytest.mark.parametrize("y", [-2, -1, 0, 1, 2])
    def test_invariance_under_equivalent_stabilities(self, m, x, y):
        q = kronecker(m)
        d = DimVector((1, 1))
        theta = Stability((1, -1))
        twisted = Stability(tuple(x * w + y for w in theta.weights))
        assert p_poly(q, d, theta) == p_poly(q, d, twisted)


class TestBettiCoprime:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_kronecker_projective_space(self, m):
        # point count of projective (m-1)-space over a field of size q
        value = betti_coprime(kronecker(m), DimVector((1, 1)), Stability((1, -1)))
        assert value == q_poly({i: 1 for i in range(m)})

    def test_one_kronecker_point(self):
        value = betti_coprime(kronecker(1), DimVector((1, 1)), Stability((1, -1)))
        assert value == HalfLaurent.one()

    def test_symmetric_two_vertex(self):
        value = betti_coprime(kronecker(2, 2), DimVector((1, 1)), Stability((1, -1)))
        assert value == q_poly({2: 1, 3: 1})

    def test_not_coprime_rejected(self):
        with pytest.raises(PreconditionError):
            betti_coprime(kronecker(2, 2), DimVector((1, 1)), Stability((0, 0)))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_degree_is_expected_dimension(self, m):
        q = kronecker(m)
        d = DimVector((1, 1))
        value = betti_coprime(q, d, Stability((1, -1)))
        assert value.degree() == 2 * moduli_dim(q, d)  # v-degree is twice the q-degree

    def test_non_coprime_value_is_not_polynomial(self):
        # without coprimality (q - 1) * p keeps a denominator
        value = (RatFunc.q_power(1) - 1) * p_poly(
            kronecker(2, 2), DimVector((1, 1)), Stability((0, 0))
        )
        assert not value.is_laurent


CYCLE3 = Quiver.from_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


@st.composite
def thin_problems(draw):
    """A quiver on 2-4 vertices with n to 8 arrows, loops included, the
    all-ones d, and a random stability normalized on d. At least n arrows
    and weights in [-2, 2] leave about a quarter of the moduli nonempty."""
    n = draw(st.integers(2, 4))
    matrix = [[0] * n for _ in range(n)]
    vertex = st.integers(0, n - 1)
    for p, r in draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=8)):
        matrix[p][r] += 1
    d = DimVector((1,) * n)
    theta = Stability(tuple(draw(st.integers(-2, 2)) for _ in range(n)))
    return Quiver.from_matrix(matrix), d, normalize_stability(theta, d)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(thin_problems())
# two nonempty moduli: two arrows each way between two vertices, and a 3-cycle
@example((kronecker(2, 2), DimVector((1, 1)), Stability((0, 0))))
@example((CYCLE3, DimVector((1, 1, 1)), Stability((0, 0, 0))))
def test_betti_counts_the_points_of_thin_moduli(problem):
    # every thin d is indivisible, so a generic deformation makes it coprime
    quiver, d, theta = problem
    theta_prime = generic_deformation(theta, d)
    value = betti_coprime(quiver, d, theta_prime)
    for q0 in (2, 3):
        assert eval_q(value, q0) == count_semistable_thin(quiver, theta_prime, q0)


@st.composite
def thin_symmetric_problems(draw):
    """A symmetric quiver on 1-3 vertices with 0-2 arrows each way, d_i in
    {1, 2} with |d| <= 4 and theta in [-2, 2]^n, abelianized: a thin
    symmetric problem of at most 9 arrows, theta normalized on the all-ones d."""
    n = draw(st.integers(1, 3))
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            matrix[i][j] = matrix[j][i] = draw(st.integers(0, 2))
    coords = tuple(draw(st.integers(1, 2)) for _ in range(n))
    assume(sum(coords) <= 4)
    theta = Stability(tuple(draw(st.integers(-2, 2)) for _ in range(n)))
    quiver, d, theta = abelianized_quiver(Quiver.from_matrix(matrix), DimVector(coords), theta)
    assume(sum(map(sum, quiver.arrows)) <= 9)
    return quiver, d, normalize_stability(theta, d)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(thin_symmetric_problems())
# stables exist: the 3 x 3 torus quotient; none do: a vertex without arrows
# to the others, which theta = 0 and theta = (1, 1, -2) cannot separate
@example((complete_with_loops(3), DimVector((1, 1, 1)), Stability((0, 0, 0))))
@example(
    (Quiver.from_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), DimVector((1, 1, 1)), Stability((0, 0, 0)))
)
@example(
    (Quiver.from_matrix([[0, 2, 0], [2, 1, 0], [0, 0, 0]]), DimVector((1, 1, 1)), Stability((1, 1, -2)))
)
def test_dt_route_counts_the_points_of_thin_moduli(problem):
    # with stables, the IC polynomial counts the points of the small
    # resolution by a generic deformation; without, DT_d = 0 (Meinhardt-Reineke)
    quiver, d, theta = problem
    value = ic_poincare_dt(quiver, d, theta)
    if not has_thin_stables(quiver, theta):
        assert value.is_zero
        return
    # on one vertex there is no proper subvector, so theta is generic already
    theta_prime = generic_deformation(theta, d) if len(d) > 1 else theta
    for q0 in (2, 3):
        assert eval_q(value, q0) == count_semistable_thin(quiver, theta_prime, q0)


class TestDtInvariants:
    def test_point(self):
        dt = dt_invariants(single_vertex(), Stability((0,)), DimVector((1,)))
        assert dt[DimVector((1,))] == RatFunc.one()

    def test_loop(self):
        dt = dt_invariants(single_vertex(1), Stability((0,)), DimVector((1,)))
        assert dt[DimVector((1,))] == RatFunc.v_power(1) * (-1)

    def test_symmetric_two_vertex(self):
        dt = dt_invariants(kronecker(2, 2), Stability((0, 0)), DimVector((1, 1)))
        expected = RatFunc.from_laurent(HalfLaurent({1: -1, 3: -1}))
        assert dt[DimVector((1, 1))] == expected

    def test_deformation_invariance_smallest_case(self):
        q = kronecker(2, 2)
        d = DimVector((1, 1))
        with_theta = dt_invariants(q, Stability((0, 0)), d)
        with_deformed = dt_invariants(q, Stability((1, -1)), d)
        assert with_theta[d] == with_deformed[d]

    # pleth_exp and pleth_log cost seconds on the largest oracle boxes, so
    # the round trip draws boxes of at most 12 cells
    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(hn_problems(max_cells=12))
    @example((kronecker(2, 2), DimVector((1, 1)), Stability((0, 0))))
    def test_defining_equation_roundtrip(self, problem):
        # the generating series of the p values, each summed over its
        # decompositions, must be the plethystic exponential of the
        # rescaled DT series
        from quivermoduli import RatFunc, SlopeSeries, normalize_stability, pleth_exp

        q, d, theta = problem
        dt = dt_invariants(q, theta, d)
        rescale = (RatFunc.v_power(-1) - RatFunc.v_power(1)).inverse()
        dt_series = SlopeSeries(d, {e: v * rescale for e, v in dt.items()})
        tnorm = normalize_stability(theta, d)
        direct = {DimVector((0,) * len(d)): RatFunc.one()}
        for e in dt:
            se = q.euler_form(e, e)
            twist = RatFunc.v_power(se) * (1 if se % 2 == 0 else -1)
            direct[e] = twist * p_by_decompositions(q, e, tnorm)
        assert pleth_exp(dt_series) == SlopeSeries(d, direct)


class TestIcPoincare:
    def test_point(self):
        value = ic_poincare_dt(single_vertex(), DimVector((1,)), Stability((0,)))
        assert value == HalfLaurent.one()

    def test_affine_line(self):
        value = ic_poincare_dt(single_vertex(1), DimVector((1,)), Stability((0,)))
        assert value == q_poly({1: 1})

    def test_rank_one_square_matrices(self):
        value = ic_poincare_dt(kronecker(2, 2), DimVector((1, 1)), Stability((0, 0)))
        assert value == q_poly({2: 1, 3: 1})

    def test_torus_quotient_of_3x3_matrices(self):
        # certified against exhaustive point counts over two finite fields;
        # smallness of the desingularization makes the moduli count the answer
        value = ic_poincare_dt(complete_with_loops(3), DimVector((1, 1, 1)), Stability((0, 0, 0)))
        assert value == q_poly({6: 2, 7: 1})
        for q0 in (2, 3):
            assert eval_q(value, q0) == count_semistable_torus(3, q0)

    def test_point_configurations_in_the_line(self):
        # four ordered points in the projective line; checked against an
        # exhaustive size-2-field count (18 semistable tuples, group order 6)
        from quivermoduli import build_example

        setup = build_example("points", [4, 2])
        value = ic_poincare_dt(setup.quiver, setup.dim_vector, setup.stability)
        assert value == q_poly({0: 1, 1: 1})
        assert count_semistable_point_configs_f2(setup.deformed.weights) == 6 * eval_q(value, 2)

    def test_torus_quotient_of_4x4_matrices(self):
        # next size up, certified against an exhaustive size-2-field count
        value = ic_poincare_dt(
            complete_with_loops(4), DimVector((1, 1, 1, 1)), Stability((0, 0, 0, 0))
        )
        assert value == q_poly({10: 6, 11: 6, 12: 3, 13: 1})
        assert count_semistable_torus(4, 2) == eval_q(value, 2)

    def test_asymmetric_kernel_rejected(self):
        with pytest.raises(PreconditionError):
            ic_poincare_dt(kronecker(3, 1), DimVector((1, 1)), Stability((0, 0)))

    def test_resolution_route_rank_one(self):
        value = ic_poincare_resolution(
            kronecker(2, 2), DimVector((1, 1)), Stability((0, 0)), Stability((1, -1))
        )
        assert value == q_poly({2: 1, 3: 1})

    def test_resolution_route_torus(self):
        value = ic_poincare_resolution(
            complete_with_loops(3),
            DimVector((1, 1, 1)),
            Stability((0, 0, 0)),
            Stability((2, -1, -1)),
        )
        assert value == q_poly({6: 2, 7: 1})
        for q0 in (2, 3):
            assert eval_q(value, q0) == count_semistable_torus(3, q0)

    def test_resolution_route_point(self):
        value = ic_poincare_resolution(
            single_vertex(), DimVector((1,)), Stability((0,)), Stability((0,))
        )
        assert value == HalfLaurent.one()

    def test_bad_deformation_rejected(self):
        with pytest.raises(PreconditionError):
            ic_poincare_resolution(
                kronecker(2, 2), DimVector((1, 1)), Stability((0, 0)), Stability((0, 0))
            )

    def test_routes_agree_and_only_integer_q_powers(self):
        from quivermoduli import build_example, generic_deformation

        star = build_example("points", [4, 2])
        bipartite = build_example("bipartite", [2, 1, 1, 1, 2])
        cases = [
            (kronecker(2, 2), DimVector((1, 1)), Stability((0, 0)), Stability((1, -1))),
            (kronecker(3, 3), DimVector((1, 1)), Stability((0, 0)), Stability((1, -1))),
            (
                complete_with_loops(3),
                DimVector((1, 1, 1)),
                Stability((0, 0, 0)),
                Stability((2, -1, -1)),
            ),
            (star.quiver, star.dim_vector, star.stability, star.deformed),
            (
                bipartite.quiver,
                bipartite.dim_vector,
                bipartite.stability,
                generic_deformation(bipartite.stability, bipartite.dim_vector),
            ),
        ]
        for q, d, theta, theta_prime in cases:
            via_dt = ic_poincare_dt(q, d, theta)
            via_res = ic_poincare_resolution(q, d, theta, theta_prime)
            assert via_dt == via_res
            assert via_dt.is_q_polynomial()


class TestVCoordinateIdentities:
    """The q-binomial and q-factorial of the integer layer, checked against each other in v."""

    BOX = DimVector((3, 2, 1))

    def test_binomial_times_factorials_is_factorial(self):
        # every binom(s, t) here is at most C(6, 3) = 20 in l1 norm, so width 8 decodes it
        table = _binomials(max(self.BOX), 8)
        pairs = 0
        for s in box_iter(self.BOX):
            for t in box_iter(s):
                rest = s - t
                packed = prod(table[si][ti] for si, ti in zip(s, t))
                binom = _stretched(_unpack(0, packed, 8), 2)
                # binom times [t]! times [s - t]!, each factor one list operation
                product = _factorial(rest, 0, _factorial(t, 0, binom))
                assert product == _factorial(s, 0, (0, [1])) == _dense(factorial_by_dicts(s)), (s, t)
                pairs += 1
        assert pairs == 10 * 6 * 3  # prod_i (d_i + 1)(d_i + 2) / 2

    def test_factorial_with_step_times_stretched_factorial_is_factorial(self):
        steps = set()
        for s in box_iter(self.BOX):
            for m in range(1, max(s) + 1):
                if any(si % m for si in s):
                    continue
                quotient = DimVector(tuple(si // m for si in s))
                stretched = _stretched(_factorial(quotient, 0, (0, [1])), m)
                assert _factorial(s, m, stretched) == _factorial(s, 0, (0, [1])), (s, m)
                steps.add((s.coords, m))
        assert {((2, 2, 0), 2), ((3, 0, 0), 3), ((1, 2, 1), 1)} <= steps


def _outcome(route, *args):
    """A route's value, or the type and message of the error it raises."""
    try:
        return route(*args)
    except (PreconditionError, InternalCheckError) as exc:
        return type(exc), str(exc)


def betti_by_field_arithmetic(q, d, theta):
    # (q - 1) * p in RatFunc field arithmetic, a canonicalization per operation
    if not is_coprime(normalize_stability(theta, d), d):
        raise PreconditionError("stability not coprime for d")
    value = (RatFunc.q_power(1) - 1) * p_poly(q, d, theta)
    return require_q_polynomial(value, "(q - 1) * p")


def ic_dt_by_field_arithmetic(q, d, theta):
    # (-v)^k * DT_d as a product of RatFuncs, k = 1 - form(d, d)
    if not symmetric_on_kernel(q, normalize_stability(theta, d)):
        raise PreconditionError("form is not symmetric on the kernel of the stability")
    dt_d = dt_invariants(q, theta, d)[d]
    k = 1 - q.euler_form(d, d)
    value = RatFunc.v_power(k) * (1 if k % 2 == 0 else -1) * dt_d
    return require_q_polynomial(value, "sign-twisted DT invariant")


class TestOneCanonicalization:
    """p_poly and each DT invariant are canonicalized once, by one gcd (_cofactors);
    betti_coprime and ic_poincare_dt take no gcd, one exact division. Field
    arithmetic is the judge.

    The call-count tests count RatFunc.from_ratio too, which none of these may call."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hn_problems(), st.booleans())
    @example((kronecker(3), DimVector((1, 1)), Stability((1, -1))), False)
    @example((kronecker(2, 2), DimVector((1, 1)), Stability((0, 0))), False)
    def test_matches_field_arithmetic(self, problem, symmetrize):
        q, d, theta = problem
        if symmetrize:
            # a symmetric form is symmetric on every kernel, so the DT route runs
            a = q.arrows
            q = Quiver.from_matrix([[a[i][j] + a[j][i] for j in range(q.n)] for i in range(q.n)])
        assert _outcome(betti_coprime, q, d, theta) == _outcome(
            betti_by_field_arithmetic, q, d, theta
        )
        assert _outcome(ic_poincare_dt, q, d, theta) == _outcome(
            ic_dt_by_field_arithmetic, q, d, theta
        )

    @staticmethod
    def _count(monkeypatch) -> Counter:
        """Calls of RatFunc.from_ratio, RatFunc._from_integers and the gcd, from now on."""
        calls = Counter()

        def counted(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        monkeypatch.setattr(halfq, "_cofactors", counted("gcd", halfq._cofactors))
        for name in ("from_ratio", "_from_integers"):
            original = getattr(RatFunc, name).__func__
            monkeypatch.setattr(RatFunc, name, classmethod(counted(name, original)))
        return calls

    BETTI_CASES = [
        (kronecker(1), DimVector((1, 1)), Stability((1, -1))),
        (kronecker(4), DimVector((1, 1)), Stability((1, -1))),
        (kronecker(3), DimVector((2, 3)), Stability((1, -1))),
        (CYCLE3, DimVector((1, 1, 1)), Stability((2, -1, -1))),
        (complete_with_loops(3), DimVector((1, 1, 1)), Stability((2, -1, -1))),
    ]

    @pytest.mark.parametrize("q, d, theta", BETTI_CASES)
    def test_one_from_ratio_per_betti_polynomial(self, monkeypatch, q, d, theta):
        # no gcd and no canonicalization: one exact division
        calls = self._count(monkeypatch)
        betti_coprime(q, d, theta)
        assert calls == Counter()

    @pytest.mark.parametrize("q, d, theta", BETTI_CASES)
    def test_p_poly_canonicalizes_once(self, monkeypatch, q, d, theta):
        calls = self._count(monkeypatch)
        p_poly(q, d, theta)
        assert calls == Counter({"_from_integers": 1, "gcd": 1})

    @pytest.mark.parametrize("l", [2, 3])
    def test_one_from_ratio_per_dt_invariant(self, monkeypatch, l):
        # all l vertices are interchangeable, so the 2^l - 1 exponents form
        # l orbits and dt_invariants canonicalizes once per orbit;
        # ic_poincare_dt finishes DT_d only, by one exact division, no gcd
        q, d, theta = complete_with_loops(l), DimVector((1,) * l), Stability((0,) * l)
        calls = self._count(monkeypatch)
        assert len(dt_invariants(q, theta, d)) == 2**l - 1
        assert calls == Counter({"_from_integers": l, "gcd": l})
        calls.clear()
        ic_poincare_dt(q, d, theta)
        assert calls == Counter()


class TestExactDivision:
    """_q_polynomial, one exact division in integers, against the canonical
    value by Euclid and the three checks of require_q_polynomial."""

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        integer_laurents(),
        integer_laurents(nonzero=True),
        st.just({}) | integer_laurents(),
        st.integers(1, 3),
        st.booleans(),
    )
    # a polynomial in q, den of negative valuation
    @example({0: 1, 2: -3}, {-2: 1, 0: 2}, {}, 1, False)
    # zero coefficients at both ends of the quotient and of den
    @example({0: 0, 2: 5, 4: 0}, {-1: 0, 0: 1, 2: -1, 6: 0}, {}, 1, False)
    # a quotient over Q that is not over Z: a remainder, non-integer coefficients
    @example({0: 1, 2: 2}, {0: 1, 1: 1}, {}, 2, False)
    # a Laurent polynomial with an odd power, not one in q
    @example({1: 1, 2: 1}, {0: 1}, {}, 1, False)
    # a nontrivial denominator
    @example({0: 1}, {0: 1, 1: 1}, {0: 1}, 1, False)
    # num = 0
    @example({}, {0: 2}, {}, 3, False)
    def test_matches_the_oracle(self, quot, den, extra, scale, in_q):
        # num = den * quot + extra over scale * den: the division is exact when
        # extra = 0 and scale divides quot, and a polynomial in q when in_q
        if in_q:
            quot = {2 * abs(p): c for p, c in quot.items()}
        num = mul_add(dict(extra), den, quot)
        den = {p: scale * c for p, c in den.items()}
        got = _outcome(_q_polynomial, _dense(num), _dense(den), "value")
        oracle = from_ratio_by_euclid(HalfLaurent(num), HalfLaurent(den))
        want = _outcome(require_q_polynomial, oracle, "value")
        if isinstance(want, HalfLaurent):
            assert isinstance(got, HalfLaurent) and got.coeffs == want.coeffs
        else:
            assert got[0] is want[0] is InternalCheckError


@st.composite
def kernel_symmetric_problems(draw):
    """(quiver, d, theta) on 2-3 vertices with d indivisible, coordinates up
    to 3, whose form is symmetric on the kernel of the normalized theta t.

    With t made primitive, the arrows are a symmetric part plus a skew part
    a_ij - a_ji = eta_i t_j - t_i eta_j for a random eta in [-1, 1]^n, the
    general form that is symmetric on the kernel of t; eta = 0 or t = 0
    gives a symmetric quiver.
    """
    n = draw(st.integers(2, 3))
    d = DimVector(tuple(draw(st.integers(0, 3)) for _ in range(n)))
    assume(not d.is_zero and is_indivisible(d) and prod(c + 1 for c in d) <= 36)
    theta = Stability(tuple(draw(st.integers(-3, 3)) for _ in range(n)))
    t = normalize_stability(theta, d).weights
    g = gcd(*t) or 1
    t = [w // g for w in t]
    eta = [draw(st.integers(-1, 1)) for _ in range(n)]
    matrix = [[draw(st.integers(0, 2)) if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            skew = eta[i] * t[j] - t[i] * eta[j]
            assume(abs(skew) <= 6)
            both = draw(st.integers(0, 2))
            matrix[i][j], matrix[j][i] = both + max(skew, 0), both + max(-skew, 0)
    return Quiver.from_matrix(matrix), d, theta


@settings(max_examples=200, derandomize=True, deadline=None)
@given(kernel_symmetric_problems())
@example((kronecker(2, 2), DimVector((1, 2)), Stability((0, 0))))
# no swap fixes this quiver, and its form is symmetric on the kernel only
@example((Q_A, DimVector((1, 2, 3)), Stability((-2, 1, -3))))
def test_dt_d_is_invariant_under_generic_deformation(problem):
    # acceptance criterion 4 on random problems: DT_d is the same for theta
    # and for its generic deformation
    q, d, theta = problem
    tnorm = normalize_stability(theta, d)
    assert symmetric_on_kernel(q, tnorm)
    theta_prime = generic_deformation(tnorm, d)
    assert dt_invariants(q, theta, d)[d] == dt_invariants(q, theta_prime, d)[d]


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (
            lambda: p_poly(kronecker(1, 1), DimVector((0, 0)), Stability((0, 0))),
            ValueError,
            "zero dimension vector",
        ),
        (
            # one arrow i -> j: (1, -1) deforms theta = 0 generically on (1, 1),
            # but the skew form does not vanish on the kernel, which is everything
            lambda: ic_poincare_resolution(
                kronecker(1), DimVector((1, 1)), Stability((0, 0)), Stability((1, -1))
            ),
            PreconditionError,
            "form is not symmetric on the kernel of the stability",
        ),
    ],
)
def test_refusals(call, kind, message):
    with pytest.raises(kind) as exc:
        call()
    assert str(exc.value) == message


@st.composite
def toric_problems(draw):
    """Arrow matrices of connected symmetric quivers on 1-4 vertices, with loops.

    A random tree keeps the quiver connected, so stables exist at theta = 0.
    The cycle cone has rank 2 * pairs - n + 1 for n vertices and that many
    pairs of opposite arrows, so one pair beyond the tree on 2 or 3 vertices,
    and none on 4, keeps it at most 4.
    """
    n = draw(st.integers(1, 4))
    order = draw(st.permutations(range(n)))
    pairs = [(order[k], order[draw(st.integers(0, k - 1))]) for k in range(1, n)]
    if n in (2, 3) and draw(st.booleans()):
        pairs.append(tuple(draw(st.permutations(range(n)))[:2]))
    arrows = [[0] * n for _ in range(n)]
    for i, j in pairs:
        arrows[i][j] += 1
        arrows[j][i] += 1
    for i in range(n):
        arrows[i][i] = draw(st.integers(0, 2))
    return arrows


class TestToricRoute:
    """IC of a torus quotient, by the g-polynomial of its cycle cone (tests/toric_oracle.py)."""

    @staticmethod
    def engine(arrows):
        n = len(arrows)
        value = ic_poincare_dt(Quiver.from_matrix(arrows), DimVector((1,) * n), Stability((0,) * n))
        return {p: int(c) for p, c in value.q_dict().items()}

    @settings(max_examples=60, deadline=None)
    @given(arrows=toric_problems())
    @example(arrows=[[0, 2], [2, 0]])
    @example(arrows=[[1, 2], [2, 2]])
    @example(arrows=[[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    @example(arrows=[[0, 2, 0], [2, 0, 1], [0, 1, 0]])
    @example(arrows=[[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    def test_matches_the_dt_route(self, arrows):
        assert self.engine(arrows) == toric_ic(arrows)

    def test_levi_adjoint_3(self):
        # rank 4, six facets, three loops: 2q^6 + q^7; the reference value
        # q^5 + q^6 + q^7 of acceptance criterion 3 needs g_2 != 0, which no
        # cone of rank 4 has
        setup = levi_adjoint(3)
        arrows = [list(row) for row in setup.quiver.arrows]
        assert cycle_cone(arrows) == (4, 6)
        assert toric_ic(arrows) == {6: 2, 7: 1}
        value = ic_poincare_dt(setup.quiver, setup.dim_vector, setup.stability)
        assert {p: int(c) for p, c in value.q_dict().items()} == {6: 2, 7: 1}
