import time
from itertools import product

import pytest

from quivermoduli import (
    BoxGuardExceeded,
    DimVector,
    MarkedPartition,
    Quiver,
    Stability,
    abelianized_quiver,
    box_size,
    build_example,
    complete_bipartite,
    is_generic_deformation,
    kronecker_general,
    levi_adjoint,
    normalize_stability,
    point_config_closed_form,
    point_config_local_data,
    rank_one_smallness_report,
    symmetric_on_kernel,
)

ALL_FAMILY_CASES = [
    ("determinantal", [2, 1]),
    ("determinantal", [3, 1]),
    ("determinantal", [3, 2]),
    ("points", [4, 2]),
    ("levi_adjoint", [3]),
    ("bipartite", [2, 1, 1, 1, 2]),
    ("kronecker_general", [2, 2]),
    ("kronecker_general", [3, 1]),
]


class TestBuildExample:
    def test_determinantal(self):
        setup = build_example("determinantal", [2, 1])
        assert setup.quiver.arrows == ((0, 2), (2, 0))
        assert setup.dim_vector == DimVector((1, 1))
        assert setup.stability == Stability((0, 0))
        assert setup.deformed == Stability((1, -1))

    def test_points(self):
        setup = build_example("points", [4, 2])
        assert setup.quiver.n == 5
        assert all(setup.quiver.arrows[k][4] == 1 for k in range(4))
        assert sum(sum(row) for row in setup.quiver.arrows) == 4
        assert setup.dim_vector == DimVector((1, 1, 1, 1, 2))
        assert setup.stability == Stability((2, 2, 2, 2, -4))
        assert setup.deformed == Stability((6, 4, 4, 4, -9))

    def test_levi_adjoint(self):
        setup = build_example("levi_adjoint", [3])
        assert setup.quiver.arrows == ((1, 1, 1), (1, 1, 1), (1, 1, 1))
        assert setup.dim_vector == DimVector((1, 1, 1))
        assert setup.stability == Stability((0, 0, 0))
        assert setup.deformed == Stability((2, -1, -1))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            build_example("nonsense", [1])

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            build_example("determinantal", [2, 3])
        with pytest.raises(ValueError):
            build_example("points", [4, 1])

    def test_non_integer_parameter(self):
        with pytest.raises(ValueError) as exc:
            build_example("determinantal", [2.0, 1])
        assert str(exc.value) == "example determinantal parameters must be integers, got 2.0"

    def test_wrong_parameter_count(self):
        with pytest.raises(ValueError) as exc:
            build_example("determinantal", [2, 1, 5])
        assert str(exc.value) == "example determinantal takes m,r with 1 <= r <= m"

    @pytest.mark.parametrize(
        "family,params",
        [("levi_adjoint", [10**9]), ("points", [10**9, 2]), ("determinantal", [10**6, 10**6])],
    )
    def test_box_guard_before_build(self, family, params):
        with pytest.raises(BoxGuardExceeded):
            build_example(family, params, max_box=10**6)

    @pytest.mark.parametrize("family,params", ALL_FAMILY_CASES)
    def test_box_guard_passes_the_box_itself(self, family, params):
        cells = box_size(build_example(family, params).dim_vector)
        assert build_example(family, params, max_box=cells) == build_example(family, params)
        with pytest.raises(BoxGuardExceeded):
            build_example(family, params, max_box=cells - 1)

    @pytest.mark.parametrize("family,params", ALL_FAMILY_CASES)
    def test_structural_validation(self, family, params):
        setup = build_example(family, params)
        q, d, theta = setup.quiver, setup.dim_vector, setup.stability
        assert len(d) == q.n and len(theta) == q.n
        assert theta(d) == 0
        if setup.deformed is not None:
            assert is_generic_deformation(theta, setup.deformed, d).passed


class TestAbelianized:
    def test_all_ones_is_fixed(self):
        setup = build_example("kronecker_general", [2, 0])
        q2, d2, t2 = abelianized_quiver(setup.quiver, setup.dim_vector, Stability((1, -1)))
        assert q2.arrows == setup.quiver.arrows
        assert d2 == setup.dim_vector
        assert t2 == Stability((1, -1))

    def test_one_kronecker_doubled_sink(self):
        setup = build_example("kronecker_general", [1, 0])
        q2, d2, t2 = abelianized_quiver(setup.quiver, DimVector((1, 2)), Stability((2, -1)))
        assert q2.n == 3
        assert q2.arrows == ((0, 1, 1), (0, 0, 0), (0, 0, 0))
        assert d2 == DimVector((1, 1, 1))
        assert t2 == Stability((2, -1, -1))

    def test_loop_vertex_doubled(self):
        setup_quiver = build_example("levi_adjoint", [1]).quiver
        q2, d2, t2 = abelianized_quiver(setup_quiver, DimVector((2,)), Stability((0,)))
        assert q2.arrows == ((1, 1), (1, 1))
        assert d2 == DimVector((1, 1))
        assert t2 == Stability((0, 0))

    def test_guard_before_the_split(self):
        # the split quiver would have 2000 vertices, a 2000 x 2000 arrow matrix
        # and 2^2000 box cells
        q = build_example("levi_adjoint", [1]).quiver
        start = time.perf_counter()
        with pytest.raises(BoxGuardExceeded):
            abelianized_quiver(q, DimVector((2000,)), Stability((0,)), max_box=10**6)
        assert time.perf_counter() - start < 0.1

    def test_guard_admits_the_split_box(self):
        q = build_example("levi_adjoint", [1]).quiver
        _, d2, _ = abelianized_quiver(q, DimVector((3,)), Stability((0,)), max_box=8)
        assert box_size(d2) == 8
        with pytest.raises(BoxGuardExceeded):
            abelianized_quiver(q, DimVector((3,)), Stability((0,)), max_box=7)

    def test_preserves_kernel_symmetry_on_small_instances(self):
        cases = [
            build_example("determinantal", [2, 1]),
            build_example("points", [3, 2]),
            build_example("bipartite", [2, 1, 1, 1, 2]),
        ]
        for setup in cases:
            tnorm = normalize_stability(setup.stability, setup.dim_vector)
            assert symmetric_on_kernel(setup.quiver, tnorm)
            q2, d2, t2 = abelianized_quiver(setup.quiver, setup.dim_vector, tnorm)
            assert symmetric_on_kernel(q2, normalize_stability(t2, d2))


class TestBipartite:
    def test_kernel_symmetry_all_small_dims(self):
        for k, l in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            for dims in product([1, 2], repeat=k + l):
                setup = complete_bipartite(dims[:k], dims[k:])
                assert setup.stability(setup.dim_vector) == 0
                assert symmetric_on_kernel(setup.quiver, setup.stability)


class TestPointConfigLocalData:
    def test_two_blocks(self):
        quiver, dim, stab = point_config_local_data(4, 2, MarkedPartition((1, 1), 0))
        assert quiver.arrows == ((0, 1), (1, 0))
        assert dim == DimVector((1, 1))
        assert stab == Stability((1, -1))

    def test_trivial_partition(self):
        quiver, dim, stab = point_config_local_data(4, 2, MarkedPartition((2,), 0))
        assert quiver.n == 1
        assert quiver.arrows == ((1,),)
        assert dim == DimVector((1,))
        assert stab == Stability((0,))

    def test_six_points(self):
        quiver, dim, stab = point_config_local_data(6, 2, MarkedPartition((1, 1), 0))
        assert quiver.arrows[0][1] == 2
        assert quiver.arrows[1][0] == 2

    def test_partition_must_sum_to_gcd(self):
        with pytest.raises(ValueError):
            point_config_local_data(4, 2, MarkedPartition((1, 1, 1), 0))

    def test_closed_form_cross_check(self):
        for m, d, parts in [(4, 2, (1, 1)), (6, 2, (1, 1)), (6, 3, (2, 1))]:
            report = point_config_closed_form(m, d, MarkedPartition(parts, 0))
            assert report["offdiag_matches"]
            assert report["stability_matches"]
            # the sign-flipped count disagrees whenever m != d and blocks exist
            if len(parts) > 1 and m != d:
                assert not report["alternate_sign_matches"]


class TestRankOneSmallness:
    def test_examples(self):
        assert rank_one_smallness_report(2, 2).small
        assert not rank_one_smallness_report(3, 1).small
        assert rank_one_smallness_report(1, 1).small

    def test_closed_form_values(self):
        report = rank_one_smallness_report(3, 1)
        assert report.fiber_dim == 2
        assert report.stratum_codim == 3

    def test_small_iff_m_at_most_n(self):
        for m in range(1, 5):
            for n in range(1, 5):
                assert rank_one_smallness_report(m, n).small == (m <= n)


KRONECKER2 = Quiver(("i", "j"), ((0, 2), (0, 0)))
ONE_ONE = MarkedPartition((1, 1), 0)


class TestRefusals:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: levi_adjoint(0), "levi_adjoint needs at least one vertex"),
            (lambda: levi_adjoint(2, 0), "block sizes must be positive"),
            (lambda: levi_adjoint(-1, 3), "block sizes must be positive"),
            (lambda: complete_bipartite((), (1,)), "block dimensions must be positive"),
            (lambda: complete_bipartite((1,), (0, 2)), "block dimensions must be positive"),
            (lambda: kronecker_general(-1, 2), "arrow counts must be nonnegative"),
            (lambda: kronecker_general(2, -1), "arrow counts must be nonnegative"),
            (
                lambda: abelianized_quiver(KRONECKER2, DimVector((0, 0)), Stability((1, -1))),
                "zero dimension vector",
            ),
            (lambda: MarkedPartition((), 0), "parts must be positive integers"),
            (lambda: MarkedPartition((2, 0), 0), "parts must be positive integers"),
            (lambda: MarkedPartition((1, 1), 2), "marked index out of range"),
            (lambda: MarkedPartition((1, 1), -1), "marked index out of range"),
            (lambda: point_config_local_data(0, 2, ONE_ONE), "needs m >= 1 and d >= 2"),
            (lambda: point_config_local_data(4, 1, ONE_ONE), "needs m >= 1 and d >= 2"),
            (lambda: rank_one_smallness_report(0, 1), "needs m, n >= 1"),
            (lambda: rank_one_smallness_report(1, 0), "needs m, n >= 1"),
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
