import random
from math import gcd

import pytest
from deform_oracle import (
    deformation_by_cells,
    deformation_violations_by_cells,
    search_eta_by_enumeration,
    search_eta_unsorted,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quivermoduli import (
    DimVector,
    EtaSearchExhausted,
    InternalCheckError,
    PreconditionError,
    Stability,
    box_iter,
    generic_deformation,
    is_coprime,
    is_generic_deformation,
    is_indivisible,
    normalize_stability,
)
import quivermoduli.core as core_module
import quivermoduli.deform as deform_module
from quivermoduli.deform import DeformationVerdict, _search_eta


class TestIsGenericDeformation:
    def test_balanced_deformation_of_zero(self):
        verdict = is_generic_deformation(
            Stability((0, 0)), Stability((1, -1)), DimVector((1, 1))
        )
        assert verdict.passed
        assert verdict.violations == ()

    def test_zero_never_deforms_zero(self):
        verdict = is_generic_deformation(
            Stability((0, 0)), Stability((0, 0)), DimVector((1, 1))
        )
        assert not verdict.passed
        assert all(kind == "coprimality_tie" for kind, _ in verdict.violations)

    def test_star_quiver_deformation(self):
        # four sources, sink dimension two, the catalog's deformed stability
        theta = Stability((2, 2, 2, 2, -4))
        theta_prime = Stability((6, 4, 4, 4, -9))
        d = DimVector((1, 1, 1, 1, 2))
        assert is_generic_deformation(theta, theta_prime, d).passed

    def test_theta_must_vanish_on_d(self):
        with pytest.raises(PreconditionError):
            is_generic_deformation(
                Stability((1, 0)), Stability((1, -1)), DimVector((1, 1))
            )

    def test_violations_are_reported(self):
        # theta' flips the sign of theta on (1, 0): negativity is lost
        theta = Stability((-1, 1))
        theta_prime = Stability((1, -1))
        verdict = is_generic_deformation(theta, theta_prime, DimVector((1, 1)))
        assert not verdict.passed
        kinds = {kind for kind, _ in verdict.violations}
        assert "lost_negativity" in kinds

    def test_str_names_the_first_three_violations_by_coordinates(self):
        # theta' = 0 ties all six proper cells of (1, 1, 1) with d
        verdict = is_generic_deformation(
            Stability((0, 0, 0)), Stability((0, 0, 0)), DimVector((1, 1, 1))
        )
        assert len(verdict.violations) == 6
        assert str(verdict) == (
            "coprimality_tie (0, 0, 1), coprimality_tie (0, 1, 0), coprimality_tie (0, 1, 1)"
        )

    def test_coprime_stability_deforms_itself(self):
        theta = Stability((1, -1))
        d = DimVector((1, 1))
        assert is_generic_deformation(theta, theta, d).passed

    def test_pass_implies_indivisible(self):
        rng = random.Random(47)
        for _ in range(200):
            d = DimVector((rng.randrange(0, 4), rng.randrange(0, 4)))
            if d.is_zero:
                continue
            theta = Stability((rng.randrange(-3, 4), rng.randrange(-3, 4)))
            if theta(d) != 0:
                continue
            theta_prime = Stability((rng.randrange(-4, 5), rng.randrange(-4, 5)))
            if is_generic_deformation(theta, theta_prime, d).passed:
                assert is_indivisible(d)


@st.composite
def box_problems(draw):
    """(d, theta normalized on d, theta'): 1-4 coordinates up to 4, at most
    120 cells, weights in [-4, 4]."""
    n = draw(st.integers(1, 4))
    coords, cells = [], 1
    for _ in range(n):
        c = draw(st.integers(0, min(4, 120 // cells - 1)))
        coords.append(c)
        cells *= c + 1
    assume(any(coords))
    d = DimVector(tuple(coords))
    theta = normalize_stability(Stability(draw(st.tuples(*[st.integers(-4, 4)] * n))), d)
    return d, theta, Stability(draw(st.tuples(*[st.integers(-4, 4)] * n)))


class TestIntegerBoxScans:
    """The scans read integer weight lists in blocks; the oracles build a DimVector per cell."""

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(box_problems(), st.sampled_from([1, 2, 3, 5, 4096]))
    def test_violations_match_the_cell_walk(self, problem, block):
        d, theta, theta_prime = problem
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(core_module, "_BLOCK_CELLS", block)
            verdict = is_generic_deformation(theta, theta_prime, d)
            coprime = is_coprime(theta_prime, d)
        expected = deformation_violations_by_cells(theta, theta_prime, d)
        assert verdict.violations == tuple(expected)
        assert verdict.passed == (not expected)
        assert coprime == all(theta_prime(e) != theta_prime(d) for e in box_iter(d) if 0 < e.total < d.total)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(box_problems(), st.sampled_from([1, 3, 4096]))
    def test_deformation_matches_the_cell_walk(self, problem, block):
        d, theta, _ = problem
        assume(len(d) >= 2 and is_indivisible(d))
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(core_module, "_BLOCK_CELLS", block)
            theta_prime = generic_deformation(theta, d)
        assert theta_prime == deformation_by_cells(theta, d)


class TestGenericDeformation:
    def test_minimal_two_vertex(self):
        assert generic_deformation(Stability((0, 0)), DimVector((1, 1))) == Stability((1, -1))

    # every eta vanishing on (1, r) is a multiple of (r, -1), of sup-norm r
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 7, 8, 9, 10, 11, 12])
    def test_one_r_family(self, r):
        theta_prime = generic_deformation(Stability((0, 0)), DimVector((1, r)))
        assert theta_prime == Stability((r, -1))

    def test_one_vertex_has_no_separating_covector(self):
        # only eta = 0 vanishes on d = (1); the bound there is |d| = 1
        with pytest.raises(EtaSearchExhausted) as info:
            generic_deformation(Stability((0,)), DimVector((1,)))
        assert info.value.bound == 1
        assert str(info.value) == "no nonzero separating covector with sup-norm at most 1 exists"

    def test_divisible_rejected(self):
        with pytest.raises(PreconditionError):
            generic_deformation(Stability((1, -1)), DimVector((2, 2)))

    def test_nonvanishing_rejected(self):
        with pytest.raises(PreconditionError):
            generic_deformation(Stability((1, 1)), DimVector((1, 1)))

    @pytest.mark.parametrize(
        "dims, eta",
        [
            ((1,) * 5, (2, 2, 2, -3, -3)),
            ((1,) * 6, (1, -3, -3, -3, 4, 4)),
            ((1,) * 7, (3, 3, 3, 3, -4, -4, -4)),
            ((1,) * 8, (1, -4, -4, -4, -4, 5, 5, 5)),
            ((2, 1, 1, 1, 1), (3, -1, 3, -4, -4)),
        ],
    )
    def test_levi_adjoint_pins(self, dims, eta):
        # theta = 0 makes the deformation eta itself; the values are those of
        # the unpruned search, which takes about a minute on eight vertices
        d = DimVector(dims)
        assert generic_deformation(Stability((0,) * len(d)), d) == Stability(eta)

    def test_failed_verification_is_one_line_without_reprs(self, monkeypatch):
        failed = DeformationVerdict(False, (("coprimality_tie", DimVector((0, 1))),))
        monkeypatch.setattr(deform_module, "is_generic_deformation", lambda *args: failed)
        with pytest.raises(InternalCheckError) as info:
            generic_deformation(Stability((0, 0)), DimVector((1, 1)))
        assert str(info.value) == (
            "constructed deformation (1, -1) failed verification: coprimality_tie (0, 1)"
        )

    def test_output_self_validates(self):
        rng = random.Random(53)
        checked = 0
        while checked < 30:
            d = DimVector(tuple(rng.randrange(0, 4) for _ in range(3)))
            if d.is_zero or not is_indivisible(d):
                continue
            theta = Stability(tuple(rng.randrange(-3, 4) for _ in range(3)))
            if theta(d) != 0:
                continue
            theta_prime = generic_deformation(theta, d)
            assert is_generic_deformation(theta, theta_prime, d).passed
            assert is_coprime(theta_prime, d)
            checked += 1


def _separating_covector(d):
    """|d| w - w(d) 1 with w_i = (|d|^2 + 2)^i, and the bound N = |d| (|d|^2 + 2)^(n-1)."""
    size, base = sum(d.coords), sum(d.coords) ** 2 + 2
    w = [base**i for i in range(len(d))]
    wd = sum(wi * di for wi, di in zip(w, d.coords))
    return Stability(tuple(size * wi - wd for wi in w)), size * base ** (len(d) - 1)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=2, max_size=5).filter(lambda c: gcd(*c) == 1))
def test_search_bound_admits_a_separating_covector(coords):
    d = DimVector(tuple(coords))
    covector, bound = _separating_covector(d)
    assert covector(d) == 0
    assert all(covector(e) != 0 for e in box_iter(d) if not e.is_zero and e != d)
    assert 0 < max(map(abs, covector.weights)) <= bound


# at theta = 0 every proper e is critical, and these d need sup-norm 7
@pytest.mark.parametrize("coords", [(1, 3, 3, 3), (2, 2, 3, 3), (3, 3, 3, 1)])
def test_search_goes_past_sup_norm_six(coords):
    d = DimVector(coords)
    critical = [e for e in box_iter(d) if not e.is_zero and e != d]
    eta = generic_deformation(Stability((0,) * len(d)), d)
    assert max(map(abs, eta.weights)) == 7
    assert eta == search_eta_by_enumeration(d, critical, 7)


def _eta_outcome(search, *args):
    try:
        return search(*args)
    except EtaSearchExhausted as exc:
        return ("exhausted", exc.bound)


def _assert_searches_agree(d, theta, critical, max_norm):
    # the package search, its walk over every head and the full enumeration
    expected = _eta_outcome(search_eta_by_enumeration, d, critical, max_norm)
    assert _eta_outcome(search_eta_unsorted, d, critical, max_norm) == expected
    assert _eta_outcome(_search_eta, d, theta, critical, max_norm) == expected


@st.composite
def eta_problems(draw):
    """Indivisible d on 1-5 vertices with coordinates 0-3, trailing zeros
    allowed, the critical set of a random stability normalized on d, and a
    sup-norm bound of 1-3."""
    n = draw(st.integers(1, 5))
    coords = tuple(draw(st.integers(0, 3)) for _ in range(n))
    assume(gcd(*coords) == 1)
    weights = tuple(draw(st.integers(-3, 3)) for _ in range(n))
    return DimVector(coords), Stability(weights), draw(st.integers(1, 3))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(eta_problems())
# the solved coordinate is not the last one, and has d_k > 1
@example((DimVector((1, 3, 0, 0)), Stability((3, -1, 2, 0)), 3))
@example((DimVector((0, 2, 3, 0)), Stability((0, 0, 0, 1)), 2))
# a head prefix leaves no x_k in range (d_k = 2, head coordinate 3)
@example((DimVector((3, 2)), Stability((0, 0)), 3))
@example((DimVector((3, 1, 2, 0)), Stability((1, 1, -2, 0)), 3))
# one vertex: nothing but eta = 0 vanishes on d, so the search exhausts
@example((DimVector((1,)), Stability((0,)), 3))
def test_solved_coordinate_matches_enumeration(problem):
    d, theta, max_norm = problem
    tnorm = normalize_stability(theta, d)
    critical = [e for e in box_iter(d) if not e.is_zero and e != d and tnorm(e) == 0]
    _assert_searches_agree(d, tnorm, critical, max_norm)


@st.composite
def eta_problems_with_classes(draw):
    """Indivisible d on 2-6 vertices with coordinates 0-2 and a stability
    vanishing on d, drawn so that vertices repeat (d_i, theta_i): each vertex
    copies an earlier one or is new. The classes may hold the last vertex
    with d_i != 0, whose coordinate the search solves for, and vertices with
    d_i = 0 repeat too. The sup-norm bound is 1-3."""
    n = draw(st.integers(2, 6))
    pairs: list[tuple[int, int]] = []
    for _ in range(n):
        if pairs and draw(st.booleans()):
            pairs.append(pairs[draw(st.integers(0, len(pairs) - 1))])
        else:
            pairs.append((draw(st.integers(0, 2)), draw(st.integers(-3, 3))))
    coords = tuple(c for c, _ in pairs)
    assume(gcd(*coords) == 1)
    theta = normalize_stability(Stability(tuple(w for _, w in pairs)), DimVector(coords))
    return DimVector(coords), theta, draw(st.integers(1, 3))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(eta_problems_with_classes())
# one class of four, the solved coordinate last in it (levi_adjoint(4) at theta = 0)
@example((DimVector((1, 1, 1, 1)), Stability((0, 0, 0, 0)), 3))
# a class of the solved coordinate with a d_i = 0 vertex after it
@example((DimVector((2, 1, 2, 0, 0)), Stability((1, -4, 1, 0, 0)), 3))
def test_class_sorted_search_matches_the_judges(problem):
    d, theta, max_norm = problem
    critical = [e for e in box_iter(d) if not e.is_zero and e != d and theta(e) == 0]
    _assert_searches_agree(d, theta, critical, max_norm)


@st.composite
def eta_problems_with_unused_vertices(draw):
    """A problem of eta_problems on at most 4 vertices with 1-3 vertices of
    d_i = 0 and any theta_i inserted at random places, before the solved
    coordinate too; the stability is normalized on d after the insertion."""
    d, theta, max_norm = draw(eta_problems())
    assume(len(d) <= 4)
    coords, weights = list(d.coords), list(theta.weights)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(coords)))
        coords.insert(at, 0)
        weights.insert(at, draw(st.integers(-3, 3)))
    d = DimVector(tuple(coords))
    return d, normalize_stability(Stability(tuple(weights)), d), max_norm


@settings(max_examples=150, derandomize=True, deadline=None)
@given(eta_problems_with_unused_vertices())
# unused vertices before, between and after the support, and before it only
@example((DimVector((0, 1, 0, 1, 0)), Stability((3, 0, -1, 0, 2)), 2))
@example((DimVector((0, 0, 2, 1)), Stability((0, 0, 0, 0)), 3))
# one used vertex: only eta = 0 vanishes on it, so the last unused vertex carries the norm
@example((DimVector((0, 3, 0)), Stability((0, 0, 0)), 2))
def test_unused_vertices_match_the_judges(problem):
    d, theta, max_norm = problem
    critical = [e for e in box_iter(d) if not e.is_zero and e != d and theta(e) == 0]
    _assert_searches_agree(d, theta, critical, max_norm)


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_generic_deformation(Stability((0, 0)), Stability((1, -1)), DimVector((0, 0))),
        lambda: generic_deformation(Stability((0, 0)), DimVector((0, 0))),
    ],
)
def test_zero_dimension_vector_refused(call):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "zero dimension vector"
