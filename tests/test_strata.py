import random
import sys
from fractions import Fraction

import pytest
from hn_oracle import hn_problems
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strata_oracle import luna_types_by_dimvectors, stratum_records_per_call, type_count

import quivermoduli.strata as strata_module
from quivermoduli import (
    DimVector,
    InternalCheckError,
    LunaType,
    NegativeArrowCountError,
    PreconditionError,
    Quiver,
    Stability,
    box_iter,
    certify_smallness,
    codim_lower_bound,
    fiber_dim_bound,
    generic_deformation,
    is_coprime,
    local_quiver,
    luna_types,
    normalize_stability,
    nullcone_dim_bound,
    smallness_margin,
    stratum_records,
)
from quivermoduli.catalog import example_from_spec

HALF = Fraction(1, 2)


def kronecker(m, n=0):
    return Quiver(("i", "j"), ((0, m), (n, 0)))


def complete_with_loops(l):
    return Quiver.from_matrix([[1] * l for _ in range(l)])


def split_type_11():
    return LunaType(((DimVector((1, 0)), 1), (DimVector((0, 1)), 1)))


class TestLunaType:
    def test_canonical_order_and_folding(self):
        xi = LunaType(
            ((DimVector((0, 1)), 1), (DimVector((1, 0)), 1), (DimVector((0, 1)), 2))
        )
        assert xi.parts == ((DimVector((1, 0)), 1), (DimVector((0, 1)), 3))
        assert xi.summand_count == 4
        assert xi.total() == DimVector((1, 3))

    def test_trivial(self):
        assert LunaType(((DimVector((2, 1)), 1),)).is_trivial
        assert not LunaType(((DimVector((2, 1)), 2),)).is_trivial


class TestLunaTypeRefusals:
    @pytest.mark.parametrize(
        "parts, message",
        [
            (((DimVector((1, 0)), 0),), "multiplicities must be positive"),
            (((DimVector((1, 0)), 1), (DimVector((0, 1)), -1)), "multiplicities must be positive"),
            (((DimVector((0, 0)), 1),), "zero part in a decomposition type"),
            ((), "decomposition type needs at least one part"),
        ],
    )
    def test_refused(self, parts, message):
        with pytest.raises(ValueError) as exc:
            LunaType(parts)
        assert str(exc.value) == message


class TestLunaTypes:
    def test_two_vertex_symmetric(self):
        types = luna_types(kronecker(2, 2), DimVector((1, 1)), Stability((0, 0)))
        assert len(types) == 2
        assert types[0].is_trivial
        assert types[1] == split_type_11()

    def test_three_vertex_complete(self):
        types = luna_types(complete_with_loops(3), DimVector((1, 1, 1)), Stability((0, 0, 0)))
        assert len(types) == 5
        assert types[0].is_trivial
        sizes = sorted(len(xi.parts) for xi in types)
        assert sizes == [1, 2, 2, 2, 3]

    def test_single_vertex(self):
        types = luna_types(Quiver.from_matrix([[0]]), DimVector((1,)), Stability((5,)))
        assert len(types) == 1 and types[0].is_trivial

    def test_parts_follow_the_slope(self):
        # with a separating stability, only the trivial type has slope-zero parts
        types = luna_types(kronecker(2, 2), DimVector((1, 1)), Stability((1, -1)))
        assert len(types) == 1 and types[0].is_trivial

    def test_totals(self):
        d = DimVector((1, 1, 2))
        for xi in luna_types(complete_with_loops(3), d, Stability((0, 0, 0))):
            assert xi.total() == d

    @pytest.mark.parametrize("l, count", [(7, 877), (8, 4140)])
    def test_torus_counts(self, l, count):
        # the Bell numbers: every set partition of the l unit vectors
        types = luna_types(complete_with_loops(l), DimVector((1,) * l), Stability((0,) * l))
        assert len(types) == count

    def test_walk_depth_follows_the_parts(self):
        # levi_adjoint(8) has 255 candidate parts; a frame per candidate would
        # pass this limit, which leaves pytest about 90 frames of room
        q, d, theta, _ = example_from_spec("levi_adjoint:8")[2]
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(120)
        try:
            types = luna_types(q, d, theta)
        finally:
            sys.setrecursionlimit(limit)
        assert len(types) == 4140

    def test_too_many_candidates_refused(self):
        # levi_adjoint(10) has 1,023 candidate parts and Bell(10) = 115,975 types
        q, d, theta, _ = example_from_spec("levi_adjoint:10")[2]
        with pytest.raises(PreconditionError, match="1023 candidate parts"):
            luna_types(q, d, theta)
        with pytest.raises(PreconditionError, match="1023 candidate parts"):
            stratum_records(q, d, theta, theta)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hn_problems(vertices=(1, 4)))
    def test_matches_dimvector_walk(self, problem):
        q, d, theta = problem
        assert luna_types(q, d, theta) == luna_types_by_dimvectors(q, d, theta)

    def test_refusals_in_order(self, monkeypatch):
        # zero d, then the candidate guard, then the type budget
        q, theta = complete_with_loops(3), Stability((0, 0, 0))
        for walk in (luna_types, lambda *args: stratum_records(*args, theta)):
            with pytest.raises(ValueError, match="zero dimension vector"):
                walk(q, DimVector((0, 0, 0)), theta)
            # (1, 1, 2) has 11 candidate parts and 11 types
            d = DimVector((1, 1, 2))
            assert len(walk(q, d, theta)) == 11
            monkeypatch.setattr(strata_module, "MAX_LUNA_TYPES", 10)
            with pytest.raises(PreconditionError, match="types, more than the 10 allowed"):
                walk(q, d, theta)
            monkeypatch.setattr(strata_module, "MAX_LUNA_CANDIDATES", 10)
            with pytest.raises(PreconditionError, match="11 candidate parts"):
                walk(q, d, theta)
            monkeypatch.undo()


@st.composite
def wide_problems(draw, max_cells: int = 160):
    """(quiver, d, theta, theta'): 1-5 vertices, coordinates up to 9 (fields of
    1-4 bits), at most max_cells cells, arrow counts 0-3, weights in [-3, 3]
    with theta = 0 included, and at most 3,000 types."""
    n = draw(st.integers(1, 5))
    coords, cells = [], 1
    for _ in range(n):
        c = draw(st.integers(0, min(9, max_cells // cells - 1)))
        coords.append(c)
        cells *= c + 1
    assume(any(coords))
    d = DimVector(tuple(coords))
    q = Quiver.from_matrix([[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)])
    theta = Stability(draw(st.one_of(st.just((0,) * n), st.tuples(*[st.integers(-3, 3)] * n))))
    assume(type_count(d.coords, _candidates(d, theta), 3000) <= 3000)
    theta_prime = Stability(draw(st.tuples(*[st.integers(-3, 3)] * n)))
    return q, d, theta, theta_prime


class TestPackedWalk:
    """The packed-integer walk on boxes wider than hn_problems draws."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(wide_problems())
    def test_matches_the_oracles(self, problem):
        q, d, theta, theta_prime = problem
        types = luna_types(q, d, theta)
        assert types == luna_types_by_dimvectors(q, d, theta)
        records = stratum_records(q, d, theta, theta_prime)
        assert [rec.luna_type for rec in records] == types
        assert records == stratum_records_per_call(q, d, theta, theta_prime)

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 7, 8, 9])
    def test_field_widths(self, c):
        # one vertex with no loop: the types of (c) are the partitions of c,
        # each part a multiple of the unit vector
        types = luna_types(Quiver.from_matrix([[0]]), DimVector((c,)), Stability((0,)))
        partitions = [[c]]
        for xi in types[1:]:
            partitions.append([p[0] for p, m in xi.parts for _ in range(m)])
        assert len(types) == [1, 2, 3, 5, 15, 22, 30][[1, 2, 3, 4, 7, 8, 9].index(c)]
        assert all(sum(parts) == c for parts in partitions)
        assert partitions == sorted(partitions, reverse=True)


class TestLocalQuiver:
    def test_full_split_reproduces_complete_quiver(self):
        q = complete_with_loops(3)
        xi = LunaType(tuple((q.unit(i), 1) for i in range(3)))
        lq, ld, ls = local_quiver(q, xi, Stability((2, -1, -1)))
        assert lq.arrows == q.arrows
        assert ld == DimVector((1, 1, 1))
        assert ls == Stability((2, -1, -1))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 1), (1, 4)])
    def test_kronecker_split(self, m, n):
        q = kronecker(m, n)
        lq, ld, ls = local_quiver(q, split_type_11(), Stability((1, -1)))
        assert lq.arrows == ((0, m), (n, 0))
        assert ld == DimVector((1, 1))
        assert ls == Stability((1, -1))

    def test_trivial_type_is_loop_quiver(self):
        q = kronecker(2, 2)
        d = DimVector((1, 1))
        xi = LunaType(((d, 1),))
        lq, ld, ls = local_quiver(q, xi, Stability((1, -1)))
        assert lq.n == 1
        assert lq.arrows[0][0] == 1 - q.euler_form(d, d)
        assert ld == DimVector((1,))
        assert ls == Stability((0,))

    def test_euler_form_carries_over(self):
        q = complete_with_loops(3)
        xi = LunaType(
            ((DimVector((1, 1, 0)), 1), (DimVector((0, 0, 1)), 2))
        )
        lq, _, _ = local_quiver(q, xi, Stability((0, 0, 0)))
        parts = [p for p, _ in xi.parts]
        for k in range(2):
            for l in range(2):
                assert lq.euler_form(lq.unit(k), lq.unit(l)) == q.euler_form(
                    parts[k], parts[l]
                )

    def test_negative_count_rejected(self):
        # overlapping supports with no arrows force a positive cross form,
        # hence a negative off-diagonal arrow count
        q = Quiver.from_matrix([[0, 0], [0, 0]])
        xi = LunaType(((DimVector((1, 1)), 1), (DimVector((1, 0)), 1)))
        with pytest.raises(NegativeArrowCountError):
            local_quiver(q, xi, Stability((0, 0)))
        # a doubled simple support with zero self-form is fine (zero loops)
        local_quiver(
            Quiver.from_matrix([[0]]), LunaType(((DimVector((1,)), 2),)), Stability((0,))
        )


class TestNullconeBound:
    def test_two_vertex_symmetric(self):
        assert nullcone_dim_bound(kronecker(2, 2), DimVector((1, 1))) == 0

    def test_loop_vertex(self):
        assert nullcone_dim_bound(Quiver.from_matrix([[1]]), DimVector((1,))) == -1

    def test_asymmetric_rejected(self):
        with pytest.raises(PreconditionError):
            nullcone_dim_bound(kronecker(1), DimVector((1, 1)))


class TestBounds:
    def test_trivial_type_fiber_zero(self):
        q = kronecker(2, 2)
        xi = LunaType(((DimVector((1, 1)), 1),))
        assert fiber_dim_bound(q, xi) == 0

    def test_full_split_complete_quiver(self):
        q = complete_with_loops(3)
        d = DimVector((1, 1, 1))
        xi = LunaType(tuple((q.unit(i), 1) for i in range(3)))
        assert fiber_dim_bound(q, xi) == 1
        assert codim_lower_bound(q, d, xi) == 4
        assert smallness_margin(q, d, xi) == -1

    def test_kronecker22_split(self):
        q = kronecker(2, 2)
        d = DimVector((1, 1))
        xi = split_type_11()
        assert fiber_dim_bound(q, xi) == 1
        assert codim_lower_bound(q, d, xi) == 3
        assert smallness_margin(q, d, xi) == -HALF

    def test_trivial_codim_and_margin(self):
        q = complete_with_loops(3)
        d = DimVector((1, 1, 1))
        xi = LunaType(((d, 1),))
        assert codim_lower_bound(q, d, xi) == 0
        assert smallness_margin(q, d, xi) == 0

    def test_margin_identity_across_types(self):
        q = complete_with_loops(3)
        d = DimVector((1, 1, 1))
        for xi in luna_types(q, d, Stability((0, 0, 0))):
            margin = smallness_margin(q, d, xi)
            fiber = fiber_dim_bound(q, xi)
            codim = codim_lower_bound(q, d, xi)
            assert margin == fiber - HALF * codim
            if xi.is_trivial:
                assert margin == 0
            else:
                assert margin < 0


class TestCertify:
    def test_rank_one_square_certified(self):
        report = certify_smallness(
            kronecker(2, 2),
            DimVector((1, 1)),
            Stability((0, 0)),
            Stability((1, -1)),
            assume_stable_nonempty=True,
        )
        assert report.verdict == "Certified"
        margins = [rec.margin for rec in report.records if not rec.filtered]
        assert 0 in margins
        assert all(m <= 0 for m in margins)

    def test_asymmetric_kernel_not_applicable(self):
        report = certify_smallness(
            kronecker(3, 1),
            DimVector((1, 1)),
            Stability((0, 0)),
            Stability((1, -1)),
        )
        assert report.verdict == "NotApplicable"
        assert not report.kernel_symmetric
        assert report.deformation_ok
        assert report.records == ()

    def test_bad_deformation_not_applicable(self):
        report = certify_smallness(
            kronecker(2, 2),
            DimVector((1, 1)),
            Stability((0, 0)),
            Stability((0, 0)),
        )
        assert report.verdict == "NotApplicable"
        assert not report.deformation_ok

    def test_complete_three_vertex_margin_table(self):
        report = certify_smallness(
            complete_with_loops(3),
            DimVector((1, 1, 1)),
            Stability((0, 0, 0)),
            Stability((2, -1, -1)),
            assume_stable_nonempty=True,
        )
        assert report.verdict == "Certified"
        margins = sorted(rec.margin for rec in report.records if not rec.filtered)
        assert margins == [-1, -HALF, -HALF, -HALF, 0]
        for rec in report.records:
            if rec.margin == 0:
                assert rec.luna_type.is_trivial

    def test_part_with_negative_expected_dimension_is_filtered(self):
        # no arrows: the full dimension vector has self-form 2, so the
        # would-be dense stratum cannot carry a stable representation
        report = certify_smallness(
            Quiver.from_matrix([[0, 0], [0, 0]]),
            DimVector((1, 1)),
            Stability((0, 0)),
            Stability((1, -1)),
        )
        trivial = [rec for rec in report.records if rec.luna_type.is_trivial]
        assert len(trivial) == 1
        assert trivial[0].filtered
        assert "negative expected stable moduli dimension" in trivial[0].reason
        split = [rec for rec in report.records if not rec.luna_type.is_trivial]
        assert len(split) == 1 and not split[0].filtered

    def test_local_dim_vector_is_coprime_for_local_stability(self):
        report = certify_smallness(
            complete_with_loops(3),
            DimVector((1, 1, 1)),
            Stability((0, 0, 0)),
            Stability((2, -1, -1)),
        )
        for rec in report.records:
            if not rec.filtered:
                assert is_coprime(rec.local_stability, rec.local_dim)


    def test_offending_margin_is_an_internal_error(self, monkeypatch):
        q, d = complete_with_loops(3), DimVector((1, 1, 1))
        theta, theta_prime = Stability((0, 0, 0)), Stability((2, -1, -1))
        broken = tuple(
            rec if rec.luna_type.is_trivial else strata_module.StratumRecord(
                rec.luna_type, rec.filtered, rec.reason, rec.local_quiver, rec.local_dim,
                rec.local_stability, rec.fiber_bound, rec.codim_bound, margin=Fraction(0),
            )
            for rec in stratum_records(q, d, theta, theta_prime)
        )
        monkeypatch.setattr(strata_module, "stratum_records", lambda *args: broken)
        with pytest.raises(InternalCheckError, match="has margin 0"):
            certify_smallness(q, d, theta, theta_prime)


class TestStratumRecords:
    def test_follows_luna_types_order(self):
        q = complete_with_loops(3)
        d = DimVector((1, 1, 2))
        theta = Stability((0, 0, 0))
        records = stratum_records(q, d, theta, Stability((4, -1, -1)))
        assert [rec.luna_type for rec in records] == luna_types(q, d, theta)

    def test_three_filters(self):
        # one type for each filter reason, kept in luna_types order
        q = Quiver.from_matrix([[3, 2, 1, 2], [1, 0, 1, 0], [3, 2, 3, 3], [2, 2, 3, 2]])
        d = DimVector((0, 2, 0, 1))
        theta = Stability((0, 3, -2, 3))
        records = stratum_records(q, d, theta, Stability((-9, 1, -15, -2)))
        assert [rec.luna_type for rec in records] == luna_types(q, d, theta)
        assert [rec.reason for rec in records] == [
            None,
            "part (0, 2, 0, 0) has negative expected stable moduli dimension (-3)",
            "local quiver would need -1 arrows from summand 2 to summand 1",
            "local quiver is not symmetric",
        ]
        asym = records[3]
        assert asym.filtered and asym.local_quiver is not None
        assert asym.fiber_bound is None and asym.margin is None

    def test_certify_never_filters_non_symmetric(self):
        # every part lies in the kernel of the stability, where the form is
        # symmetric once the hypotheses hold, so every local quiver is symmetric
        rng = random.Random(0)
        reached = several_types = 0
        for _ in range(200):
            n = rng.randint(2, 3)
            m = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.5:
                m = [[max(m[i][j], m[j][i]) for j in range(n)] for i in range(n)]
            q = Quiver.from_matrix(m)
            d = DimVector(tuple(rng.randint(0, 2) for _ in range(n)))
            if d.is_zero:
                continue
            theta = Stability(tuple(rng.randint(-1, 1) for _ in range(n)))
            try:
                theta_prime = generic_deformation(normalize_stability(theta, d), d)
            except PreconditionError:
                continue
            report = certify_smallness(q, d, theta, theta_prime)
            if report.verdict == "NotApplicable":
                continue
            reached += 1
            several_types += len(report.records) > 1
            assert report.records == stratum_records(q, d, theta, theta_prime)
            assert all(rec.reason != "local quiver is not symmetric" for rec in report.records)
            # the bound that makes the verdict depend on the hypotheses alone
            for rec in report.records:
                if not rec.filtered:
                    assert rec.margin <= -HALF * (rec.luna_type.summand_count - 1)
        assert reached >= 50 and several_types >= 10

    def test_non_symmetric_local_quiver_needs_kernel_asymmetry(self):
        q = Quiver.from_matrix([[0, 1, 1], [3, 0, 3], [3, 2, 2]])
        d = DimVector((1, 0, 1))
        theta = Stability((-3, 0, -3))
        theta_prime = Stability((1, 6, -1))
        reasons = [rec.reason for rec in stratum_records(q, d, theta, theta_prime)]
        assert reasons == [None, "local quiver is not symmetric"]
        report = certify_smallness(q, d, theta, theta_prime)
        assert report.verdict == "NotApplicable" and not report.kernel_symmetric


class TestEulerTable:
    """stratum_records reads one table per walk; the oracle calls the form per value."""

    @pytest.mark.parametrize(
        "spec",
        [
            "levi_adjoint:2",
            "levi_adjoint:3",
            "levi_adjoint:4",
            "levi_adjoint:5",
            "determinantal:3,2",
            "points:4,2",
        ],
    )
    def test_catalog_matches_per_call_forms(self, spec):
        q, d, theta, deformed = example_from_spec(spec)[2]
        tnorm = normalize_stability(theta, d)
        theta_prime = deformed if deformed is not None else generic_deformation(tnorm, d)
        records = stratum_records(q, d, theta, theta_prime)
        assert len(records) > 1
        assert records == stratum_records_per_call(q, d, theta, theta_prime)

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(hn_problems(), st.data())
    def test_random_problems_match_per_call_forms(self, problem, data):
        q, d, theta = problem
        theta_prime = Stability(data.draw(st.tuples(*[st.integers(-3, 3)] * len(d))))
        records = stratum_records(q, d, theta, theta_prime)
        assert records == stratum_records_per_call(q, d, theta, theta_prime)


class TestLocalDataOncePerKey:
    """The local data is computed once per distinct (Gram matrix, multiplicities) pair."""

    @staticmethod
    def count_calls(monkeypatch):
        calls = []
        check = strata_module._fiber_and_margin

        def counted(*args):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(strata_module, "_fiber_and_margin", counted)
        return calls

    def test_levi_adjoint_7(self, monkeypatch):
        # 877 types, whose Gram matrices follow the 64 compositions of 7
        q, d, theta, deformed = example_from_spec("levi_adjoint:7")[2]
        calls = self.count_calls(monkeypatch)
        records = stratum_records(q, d, theta, deformed)
        assert len(records) == 877 and len(calls) == 64

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(hn_problems(), st.data())
    def test_random_problems(self, problem, data):
        # a local quiver and its dimension vector determine the key; every key
        # with a local quiver reaches the cross-checks, once
        q, d, theta = problem
        theta_prime = Stability(data.draw(st.tuples(*[st.integers(-3, 3)] * len(d))))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self.count_calls(monkeypatch)
            records = stratum_records(q, d, theta, theta_prime)
        keys = {
            (rec.local_quiver.arrows, rec.local_dim)
            for rec in records
            if rec.local_quiver is not None
        }
        assert len(calls) == len(keys)


def _candidates(d, theta):
    tnorm = normalize_stability(theta, d)
    return [e.coords for e in box_iter(d) if not e.is_zero and tnorm(e) == 0]


class TestTypeCount:
    """The coefficient of t^d in prod_e 1 / (1 - t^e) counts the decomposition types."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hn_problems(max_cells=60), st.data())
    def test_counts_luna_types(self, problem, data):
        q, d, theta = problem
        count = len(luna_types(q, d, theta))
        parts = data.draw(st.permutations(_candidates(d, theta)))
        assert type_count(d.coords, parts, count) == count
        # past the limit the DP may stop early, with a count above the limit
        limit = data.draw(st.integers(0, count + 1))
        assert (type_count(d.coords, parts, limit) > limit) == (count > limit)

    @pytest.mark.parametrize(
        "q, d, theta, count",
        [
            (*example_from_spec("levi_adjoint:7")[2][:3], 877),
            (*example_from_spec("levi_adjoint:8")[2][:3], 4140),
            (*example_from_spec("levi_adjoint:9")[2][:3], 21147),
            (kronecker(3), DimVector((8, 9)), Stability((0, 0)), 13715),
        ],
    )
    def test_fixed_counts(self, q, d, theta, count):
        assert type_count(d.coords, _candidates(d, theta), count) == count
        assert len(luna_types(q, d, theta)) == count

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(hn_problems(), st.data())
    def test_walk_refuses_past_the_budget(self, problem, data):
        # the walk counts its own types: it refuses exactly when the count passes
        # the budget, on meeting the first type past it
        q, d, theta = problem
        parts = _candidates(d, theta)
        count = type_count(d.coords, parts, 10**9)
        limit = data.draw(st.integers(0, count + 1))
        refused = type_count(d.coords, parts, limit) > limit
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(strata_module, "MAX_LUNA_TYPES", limit)
            for walk in (luna_types, lambda *args: stratum_records(*args, theta)):
                if not refused:
                    assert len(walk(q, d, theta)) == count
                    continue
                with pytest.raises(PreconditionError) as exc:
                    walk(q, d, theta)
                assert str(exc.value) == (
                    f"at least {limit + 1} decomposition types, more than the {limit} allowed"
                )

    def test_budget(self):
        # levi_adjoint(9) is listed, two vertices at theta = 0 with d = (10, 11) are not
        assert 21147 <= strata_module.MAX_LUNA_TYPES < 94664
        d, theta = DimVector((10, 11)), Stability((0, 0))
        assert type_count(d.coords, _candidates(d, theta), 10**6) == 94664
        with pytest.raises(PreconditionError, match="decomposition types"):
            luna_types(kronecker(3), d, theta)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: certify_smallness(
                    kronecker(1, 1), DimVector((0, 0)), Stability((0, 0)), Stability((1, -1))
                ),
                "zero dimension vector",
            ),
            (
                lambda: codim_lower_bound(
                    kronecker(1, 1), DimVector((1, 1)), LunaType(((DimVector((1, 0)), 1),))
                ),
                "decomposition type does not sum to d",
            ),
            (
                lambda: smallness_margin(
                    kronecker(1, 1), DimVector((1, 1)), LunaType(((DimVector((0, 1)), 2),))
                ),
                "decomposition type does not sum to d",
            ),
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message

    @pytest.mark.parametrize("quiver, certified", [(kronecker(2, 2), True), (kronecker(2, 1), False)])
    def test_certified_is_the_verdict(self, quiver, certified):
        # Kronecker(2, 1) is not symmetric on the kernel of theta = 0
        report = certify_smallness(quiver, DimVector((1, 1)), Stability((0, 0)), Stability((1, -1)))
        assert report.certified is certified
        assert report.verdict == ("Certified" if certified else "NotApplicable")
