import random
from fractions import Fraction

import pytest

from quivermoduli import (
    DimVector,
    LunaType,
    NegativeArrowCountError,
    PreconditionError,
    Quiver,
    Stability,
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
