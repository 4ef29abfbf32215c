"""Closure equality and cut attribution decided by canonical facet lists.

Full-dimensional irredundant systems in sorted canonical form describe
the same set exactly when they are equal, and a facet of a
full-dimensional hull is one of its rows.  These tests check each such
decision against the LP path it replaces: ``lp_same_point_set`` for the
stabilization flag and the theorem-1 rebuild, and ``lp_classify_cuts``
(``check_implication`` plus ``lp_is_facet_defining``) for attribution.
"""

from fractions import Fraction as F

from hypothesis import assume, example, given, settings, strategies as st

from closurelab import linalg, lp, polyhedron
from closurelab.aggregation import classify_cuts, closure_approx
from closurelab.cone import GeneratedCone, check_theorem1, closure_of, extreme_rays
from closurelab.covering import CoveringInstance
from closurelab.polyhedron import dimension

from oracles import (lp_classify_cuts, lp_same_point_set, projection_lemma_sides,
                     unique_generators, with_unit_last)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# at density 1 the x1 + x2 >= 2 cut is missed, so the run is not stabilized
KNAPSACK_PAIR = CoveringInstance(([2, 1], [1, 2]), (2, 2))
TWO_ROW = CoveringInstance(([1, 2], [2, 1]), (3, 3))
SINGLE_ROW = CoveringInstance(([2, 3],), (7,))
# a zero row and a zero column: the closure keeps the bare sign bounds
ZERO_ROW = CoveringInstance(([0, 0], [3, 0]), (0, 4))

coefficients = st.sampled_from((F(0), F(1), F(2), F(3), F(1, 2)))


@st.composite
def closure_runs(draw):
    n = draw(st.integers(1, 2))
    m = draw(st.integers(1, 2))
    rows, demand = [], []
    for _ in range(m):
        row = draw(st.lists(coefficients, min_size=n, max_size=n))
        rows.append(row)
        demand.append(draw(st.sampled_from((F(1), F(2), F(5, 2), F(3)))) if any(row) else F(0))
    k = draw(st.integers(1, m))
    return CoveringInstance(tuple(rows), tuple(demand)), k, draw(st.integers(1, 2))


@PROPERTY
@given(closure_runs())
@example((KNAPSACK_PAIR, 1, 1))
@example((KNAPSACK_PAIR, 1, 2))
@example((TWO_ROW, 2, 1))
@example((SINGLE_ROW, 1, 2))
@example((ZERO_ROW, 1, 1))
def test_stabilized_matches_same_point_set(run):
    q, k, density = run
    ca = closure_approx(q, k, density)
    doubled = closure_approx(q, k, 2 * density).polyhedron
    assert ca.stabilized == lp_same_point_set(ca.polyhedron, doubled)


@PROPERTY
@given(closure_runs())
@example((KNAPSACK_PAIR, 1, 1))
@example((KNAPSACK_PAIR, 1, 2))
@example((TWO_ROW, 1, 1))
@example((SINGLE_ROW, 1, 1))
@example((ZERO_ROW, 1, 1))
def test_classify_cuts_matches_lp_attribution(run):
    ca = closure_approx(*run)
    assert classify_cuts(ca) == lp_classify_cuts(ca)


cone_entries = st.integers(-3, 3)


@st.composite
def full_dimensional_cones(draw):
    n = draw(st.integers(2, 3))
    # unit-last is optional: the cone workload's cones lack it
    gens = [linalg.zeros(n) + (F(1),)] if draw(st.booleans()) else []
    for _ in range(draw(st.integers(2, 5))):
        alpha = tuple(F(draw(cone_entries)) for _ in range(n))
        if not linalg.is_zero(alpha):
            gens.append(alpha + (F(draw(st.integers(0, 3))),))
    assume(gens)
    cone = GeneratedCone(tuple(gens))
    assume(dimension(closure_of(cone)) == n)
    return cone


SQUARE_CONE = GeneratedCone(((1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, 1)))
# (1, 1, 2) is the sum of two other generators: a redundant row
SUM_CONE = GeneratedCone(((1, 0, 1), (0, 1, 1), (1, 1, 2), (-1, 0, 0), (0, -1, 0)))
# no (0, 0, 1): check_theorem1 appends it
NO_UNIT_CONE = GeneratedCone(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


@PROPERTY
@given(full_dimensional_cones())
@example(SQUARE_CONE)
@example(SUM_CONE)
@example(NO_UNIT_CONE)
def test_rebuilt_equals_closure_matches_same_point_set(cone):
    ku, _ = with_unit_last(cone)
    rays = extreme_rays(ku).rays
    rebuilt = closure_of(GeneratedCone(rays + (linalg.unit(ku.dim, ku.n),)))
    rep = check_theorem1(cone)
    assert rep.rebuilt_equals_closure == lp_same_point_set(closure_of(ku), rebuilt)
    assert rep.extreme_rays == rays
    assert rep.added_unit_last == (not cone.has_unit_last)


@PROPERTY
@given(full_dimensional_cones())
@example(SQUARE_CONE)
@example(SUM_CONE)
def test_closure_list_equality_matches_same_point_set_on_subfamilies(cone):
    # dropping one generator gives a closure containing the full one, so
    # both outcomes of the list comparison occur
    ku, _ = with_unit_last(cone)
    closure = closure_of(ku)
    gens = unique_generators(ku)
    for i in range(len(gens)):
        sub = closure_of(GeneratedCone(gens[:i] + gens[i + 1:] + (linalg.unit(ku.dim, ku.n),)))
        assert (closure == sub) == lp_same_point_set(closure, sub)


def test_classify_cuts_makes_no_lp_call(monkeypatch):
    ca = closure_approx(KNAPSACK_PAIR, 1, 1)

    def no_lp(*args):
        raise AssertionError("classify_cuts solved an LP")

    monkeypatch.setattr(lp, "_simplex_standard", no_lp)
    labels = classify_cuts(ca)
    assert len(labels) == len(ca.polyhedron.inequalities)


def test_facet_list_decisions_make_no_implication_lp(monkeypatch):
    # facet-list comparisons read the cached DD; check_implication is only
    # for certificates
    def no_implication(*args):
        raise AssertionError("an implication LP decided a facet-list comparison")

    monkeypatch.setattr(polyhedron, "check_implication", no_implication)
    ca = closure_approx(KNAPSACK_PAIR, 1, 2)
    assert ca.stabilized
    classify_cuts(ca)
    projected, closure = projection_lemma_sides(SINGLE_ROW, 1)
    assert projected == closure
    assert check_theorem1(SQUARE_CONE).passed
