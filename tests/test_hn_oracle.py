from hn_oracle import hn_decompositions, hn_problems, p_by_decompositions
from hypothesis import given, settings

from quivermoduli import DimVector, Stability, p_poly


class TestHnDecompositions:
    def test_two_vertex_balanced(self):
        decs = hn_decompositions(DimVector((1, 1)), Stability((1, -1)))
        parts = {tuple(dec.parts) for dec in decs}
        assert parts == {
            (DimVector((1, 1)),),
            (DimVector((1, 0)), DimVector((0, 1))),
        }

    def test_single_vertex_trivial_only(self):
        decs = hn_decompositions(DimVector((2,)), Stability((0,)))
        assert [dec.parts for dec in decs] == [(DimVector((2,)),)]

    def test_mirror(self):
        decs = hn_decompositions(DimVector((1, 1)), Stability((-1, 1)))
        parts = {tuple(dec.parts) for dec in decs}
        assert parts == {
            (DimVector((1, 1)),),
            (DimVector((0, 1)), DimVector((1, 0))),
        }

    def test_contains_trivial_and_is_deterministic(self):
        d = DimVector((2, 1))
        theta = Stability((1, -2))
        first = hn_decompositions(d, theta)
        second = hn_decompositions(d, theta)
        assert [dec.parts for dec in first] == [dec.parts for dec in second]
        assert (d,) in [dec.parts for dec in first]
        for dec in first:
            assert dec.total() == d


@settings(max_examples=60, derandomize=True, deadline=None)
@given(hn_problems())
def test_recursion_matches_decomposition_sum(problem):
    q, d, theta = problem
    assert p_poly(q, d, theta) == p_by_decompositions(q, d, theta)
