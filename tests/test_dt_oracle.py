from dt_oracle import dt_by_pleth_log
from hn_oracle import hn_problems
from hypothesis import given, settings

from quivermoduli import dt_invariants


@settings(max_examples=60, derandomize=True, deadline=None)
@given(hn_problems(vertices=(1, 3)))
def test_normalized_log_matches_pleth_log(problem):
    q, d, theta = problem
    assert dt_invariants(q, theta, d) == dt_by_pleth_log(q, theta, d)
