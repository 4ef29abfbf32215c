"""Covering instances: minimal points, integer hulls, down-set dominance."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import linalg, polyhedron
from closurelab.covering import (
    CoveringInstance,
    MinimalPointSet,
    _lower_chains,
    down_set_contains,
    enumeration_box,
    minimal_integer_points,
)
from closurelab.errors import ContractViolation
from closurelab.polyhedron import check_implication, dd_cone
from closurelab.verify import brute_force_minimal_points, random_covering

from oracles import (down_set_box_oracle, ge, lp_same_point_set, round_trip_h_to_v,
                     unfiltered_hull)

V = linalg.vector


def pts(*tuples):
    return tuple(V(t) for t in tuples)


def test_minimal_points_named_instance():
    q = CoveringInstance(([1, 2],), (3,))
    assert minimal_integer_points(q).points == pts((0, 2), (1, 1), (3, 0))


def test_minimal_points_dominated_candidate():
    q = CoveringInstance(([2, 3],), (6,))
    assert minimal_integer_points(q).points == pts((0, 2), (2, 1), (3, 0))


def test_minimal_points_origin():
    q = CoveringInstance(([1],), (0,))
    assert minimal_integer_points(q).points == pts((0,))


def test_enumeration_box():
    assert enumeration_box(CoveringInstance(([1, 2],), (3,))) == (3, 2)
    assert enumeration_box(CoveringInstance(([1, 0], [0, 3]), (5, 7))) == (5, 3)
    # an all-zero column pins its variable to zero
    assert enumeration_box(CoveringInstance(([2, 0],), (3,))) == (2, 0)


def test_integer_hull_named_instance():
    hull = minimal_integer_points(CoveringInstance(([1, 2],), (3,))).hull()
    assert set(hull.inequalities) == {ge([1, 1], 2), ge([1, 2], 3),
                                      ge([1, 0], 0), ge([0, 1], 0)}


def test_integer_hull_integral_relaxation():
    hull = minimal_integer_points(CoveringInstance(([2, 3],), (6,))).hull()
    assert set(hull.inequalities) == {ge([2, 3], 6), ge([1, 0], 0), ge([0, 1], 0)}


def test_integer_hull_zero_demand_is_orthant():
    hull = minimal_integer_points(CoveringInstance(([1, 2], [3, 0]), (0, 0))).hull()
    assert set(hull.inequalities) == {ge([1, 0], 0), ge([0, 1], 0)}


def _rejects(points, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        MinimalPointSet(points)


def test_minimal_point_set_enforces_antichain():
    comparable = ("not an antichain: (Fraction(0, 1), Fraction(2, 1)) and "
                  "(Fraction(1, 1), Fraction(2, 1)) are comparable")
    _rejects(pts((1, 2), (0, 2)), comparable)
    _rejects(pts((0, 2), (1, 2)), comparable)
    _rejects(pts((1, 1), (1, 1)),
             "not an antichain: (Fraction(1, 1), Fraction(1, 1)) and "
             "(Fraction(1, 1), Fraction(1, 1)) are comparable")
    _rejects((V([F(1, 2), F(1)]),),
             "minimal points live in N^n, got (Fraction(1, 2), Fraction(1, 1))")
    _rejects(pts((0, 3), (-1, 2)),
             "minimal points live in N^n, got (Fraction(-1, 1), Fraction(2, 1))")


def test_minimal_point_set_reports_first_comparable_pair_in_sorted_order():
    _rejects(pts((0, 3), (1, 2), (1, 1)),
             "not an antichain: (Fraction(1, 1), Fraction(1, 1)) and "
             "(Fraction(1, 1), Fraction(2, 1)) are comparable")
    _rejects(pts((2, 0), (0, 2), (1, 3), (3, 1)),
             "not an antichain: (Fraction(0, 1), Fraction(2, 1)) and "
             "(Fraction(1, 1), Fraction(3, 1)) are comparable")


def test_down_set_examples():
    assert down_set_contains([(1, 0), (0, 1)], [(1, 1)])
    assert not down_set_contains([(2, 0)], [(1, 1)])
    assert down_set_contains([], [(1, 1)])


def test_down_set_matches_box_oracle():
    rng = random.Random(9)
    for _ in range(60):
        e1 = [tuple(rng.randint(0, 4) for _ in range(2))
              for _ in range(rng.randint(1, 4))]
        e2 = [tuple(rng.randint(0, 4) for _ in range(2))
              for _ in range(rng.randint(1, 4))]
        assert down_set_contains(e1, e2) == down_set_box_oracle(e1, e2)


def test_covering_validation():
    with pytest.raises(ContractViolation):
        CoveringInstance(([-1, 2],), (3,))
    with pytest.raises(ContractViolation):
        CoveringInstance(([1, 2],), (-3,))
    with pytest.raises(ContractViolation):
        CoveringInstance(([0, 0],), (3,))
    with pytest.raises(ContractViolation):
        CoveringInstance((), ())
    with pytest.raises(ContractViolation, match="^matrix rows have unequal lengths$"):
        CoveringInstance(([1, 2], [1]), (1, 1))


def test_covering_instance_stores_int_rows():
    """[M | d] times one common denominator, with M and d read back as
    Fractions; == and hashing read the stored ints, and repr prints (M, d)."""
    q = CoveringInstance(([1, "1/2"], [F(1, 3), 0]), ("3/2", 2))
    assert (q.rows, q.denominator) == (((6, 3, 9), (2, 0, 12)), 6)
    assert q.M == ((F(1), F(1, 2)), (F(1, 3), F(0))) and q.d == (F(3, 2), F(2))
    assert q == CoveringInstance(q.M, q.d) and hash(q) == hash((q.rows, q.denominator))
    assert repr(q) == f"CoveringInstance(M={q.M!r}, d={q.d!r})"
    # the same feasible set written at another scale is another instance
    assert q != CoveringInstance(([6, 3], [2, 0]), (9, 12))
    ints = CoveringInstance(([2, 1],), (3,))
    assert all(type(a) is int for a in ints.rows[0]) and ints.denominator == 1


def test_minimal_points_match_oracle_random():
    rng = random.Random(14)
    for _ in range(25):
        q = random_covering(rng)
        assert minimal_integer_points(q).points == brute_force_minimal_points(q)


def test_box_enlargement_is_stable_random():
    rng = random.Random(15)
    for _ in range(15):
        q = random_covering(rng)
        assert (minimal_integer_points(q).points
                == brute_force_minimal_points(q, slack=2))


def test_hull_is_covering_shaped_random():
    rng = random.Random(16)
    for _ in range(12):
        q = random_covering(rng)
        hull = minimal_integer_points(q).hull()
        for facet in hull.inequalities:
            ge_normal = linalg.neg(facet.row[:-1])
            assert all(a >= 0 for a in ge_normal)
            assert -facet.row[-1] >= 0
        assert round_trip_h_to_v(hull).rays == tuple(sorted(
            linalg.unit(q.n, j) for j in range(q.n)))


def test_hull_sandwich_random():
    rng = random.Random(18)
    for _ in range(10):
        q = random_covering(rng)
        hull = minimal_integer_points(q).hull()
        relax = q.to_hpolyhedron()
        for t in relax.inequalities:
            assert check_implication(hull.inequalities, t).implied
        for p in minimal_integer_points(q).points:
            assert hull.contains(p)


def test_rational_data_instance():
    q = CoveringInstance(([F(1, 2), F(3, 2)],), (F(9, 4),))
    mp = minimal_integer_points(q)
    # 2x1 + 6x2 >= 9 over N^2: minimal points by hand
    assert mp.points == pts((0, 2), (2, 1), (5, 0))
    hull = minimal_integer_points(q).hull()
    scaled = CoveringInstance(([2, 6],), (9,))
    assert lp_same_point_set(hull, minimal_integer_points(scaled).hull())


# Small nonnegative rationals, zero drawn often: zero coefficients give
# rows that ignore the last coordinate and zero demands give the origin.
coefficients = st.sampled_from((F(0), F(0), F(1, 2), F(1), F(3, 2), F(2), F(3)))
demands = st.sampled_from((F(0), F(1), F(3, 2), F(2), F(3)))


@st.composite
def coverings(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 3))
    zero_last_column = draw(st.booleans())
    rows, rhs = [], []
    for _ in range(m):
        row = draw(st.lists(coefficients, min_size=n, max_size=n))
        if zero_last_column:
            row[-1] = F(0)
        rows.append(row)
        rhs.append(draw(demands) if any(row) else F(0))
    return CoveringInstance(tuple(rows), tuple(rhs))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(coverings())
# n = 1: the only prefix is empty, and x_1 is the least feasible value
@example(CoveringInstance(([F(2, 3)],), (F(5, 3),)))
@example(CoveringInstance(([0], [F(1, 2)]), (0, 2)))
# the predecessor (1,) of prefix (2,) fails x_1 >= 2, a row with last
# coefficient 0; the second row alone would give it the same t = 1
@example(CoveringInstance(([1, 0], [0, 1]), (2, 1)))
# prefix (2,) has t = 1 like its predecessor (1,), so (1, 1) dominates
# (2, 1): only the strict comparison drops it
@example(CoveringInstance(([1, 2],), (3,)))
def test_minimal_points_match_brute_force_oracle(q):
    assert minimal_integer_points(q).points == brute_force_minimal_points(q)


def test_minimal_point_set_checks_a_long_antichain():
    antichain = [(i, 2999 - i) for i in range(3000)]
    assert MinimalPointSet(antichain).points == tuple(antichain)
    _rejects(antichain + [(0, 2999)],
             "not an antichain: (Fraction(0, 1), Fraction(2999, 1)) and "
             "(Fraction(0, 1), Fraction(2999, 1)) are comparable")


def test_minimal_point_set_rejects_mixed_dimensions():
    _rejects([(1, 0), (0,)], "minimal points must all have the same dimension")


# ---------------------------------------------------------------------------
# the run-at-a-time scan on named cases


def _scan_matches(q, expected):
    assert minimal_integer_points(q).points == expected
    assert minimal_integer_points(q).points == brute_force_minimal_points(q)


def test_scan_prefix_coordinate_with_zero_bound():
    # column 1 is zero, so B_1 = 0 and every outer prefix is (0,)
    q = CoveringInstance(([0, 1, 1],), (2,))
    assert enumeration_box(q) == (0, 2, 2)
    _scan_matches(q, ((0, 0, 2), (0, 1, 1), (0, 2, 0)))


def test_scan_fixed_row_blocks_the_zero_prefix():
    # x_1 >= 2 has last coefficient 0: the run starts blocked at x_1 = 0, 1
    _scan_matches(CoveringInstance(([1, 0], [1, 1]), (2, 3)), ((2, 1), (3, 0)))
    # x_1 + x_2 >= 1 blocks only the prefix (0, 0); (1, 0) and (0, 1) each
    # have a blocked predecessor and are kept
    _scan_matches(CoveringInstance(([1, 1, 0], [0, 0, 1]), (1, 1)),
                  ((0, 1, 1), (1, 0, 1)))
    # a fixed row no prefix of a run meets blocks the whole run
    _scan_matches(CoveringInstance(([2, 0, 0], [0, 1, 1]), (3, 2)),
                  ((2, 0, 2), (2, 1, 1), (2, 2, 0)))


def test_scan_one_variable():
    _scan_matches(CoveringInstance(([3], [2]), (7, 9)), ((5,),))
    _scan_matches(CoveringInstance(([0], [2]), (0, 3)), ((2,),))
    _scan_matches(CoveringInstance(([0],), (0,)), ((0,),))


def test_scan_two_variables_has_no_outer_prefix():
    _scan_matches(CoveringInstance(([1, 2], [3, 1]), (4, 3)), ((0, 3), (1, 2), (2, 1), (4, 0)))


# ---------------------------------------------------------------------------
# the lower-chain filter in front of the hull's double description


def test_chain_filter_pops_collinear_points():
    # 2 x1 + 3 x2 >= 60: 11 of the 21 minimal points lie on the line
    q = CoveringInstance(([2, 3],), (60,))
    points = minimal_integer_points(q)
    assert len(points.points) == 21
    assert _lower_chains(points.points) == [(0, 20), (30, 0)]
    hull = points.hull()
    assert hull == unfiltered_hull(points.points)
    assert set(hull.inequalities) == {ge([2, 3], 60), ge([1, 0], 0), ge([0, 1], 0)}


def test_chain_filter_pops_a_point_above_a_segment():
    # (2, 1) lies above the segment from (0, 2) to (3, 0)
    points = minimal_integer_points(CoveringInstance(([2, 3],), (6,)))
    assert points.points == ((0, 2), (2, 1), (3, 0))
    assert _lower_chains(points.points) == [(0, 2), (3, 0)]
    assert points.hull() == unfiltered_hull(points.points)


def test_chain_filter_one_variable():
    points = MinimalPointSet([(4,)])
    assert _lower_chains(points.points) == [(4,)]
    assert points.hull() == unfiltered_hull(points.points)


def test_chain_filter_restarts_when_x_n_minus_2_changes():
    # run x1 = 0 drops (0, 2, 3), above its segment; run x1 = 1 drops the
    # collinear (1, 1, 1); (0, 4, 0) and (1, 0, 2) are in different runs
    points = MinimalPointSet([(0, 0, 4), (0, 2, 3), (0, 4, 0), (1, 0, 2), (1, 1, 1), (1, 2, 0)])
    assert _lower_chains(points.points) == [(0, 0, 4), (0, 4, 0), (1, 0, 2), (1, 2, 0)]
    assert points.hull() == unfiltered_hull(points.points)


def test_hull_sends_the_dd_only_unit_rows_and_chain_vertices(monkeypatch):
    sizes = []

    def counting(rows, dim):
        sizes.append(len(rows))
        return dd_cone(rows, dim)

    monkeypatch.setattr(polyhedron, "dd_cone", counting)
    minimal_integer_points(CoveringInstance(([2, 3],), (60,))).hull()
    assert sizes == [4]  # 2 unit rows and 2 points, not 2 + 21


@st.composite
def staircases(draw):
    """Covering instances with 1-5 variables and zero entries; demands up
    to 60 at n = 1 give long staircases, and each larger n gets a smaller
    top demand so that the box stays small."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    top = (60, 40, 12, 5, 3)[n - 1]
    rows, rhs = [], []
    for _ in range(m):
        row = [draw(st.integers(0, 3)) for _ in range(n)]
        rows.append(row)
        rhs.append(draw(st.integers(0, top)) if any(row) else 0)
    return CoveringInstance(rows, rhs)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(staircases())
@example(CoveringInstance(([2, 3],), (60,)))
@example(CoveringInstance(([1, 1],), (40,)))
@example(CoveringInstance(([1, 2, 3], [2, 0, 1]), (12, 7)))
@example(CoveringInstance(([0, 1, 0, 2, 1],), (3,)))
def test_filtered_hull_equals_the_hull_of_every_point(q):
    points = minimal_integer_points(q)
    assert points.hull() == unfiltered_hull(points.points)


def test_minimal_point_set_int_input_keeps_the_messages():
    _rejects([(0, 3), (-1, 2)],
             "minimal points live in N^n, got (Fraction(-1, 1), Fraction(2, 1))")
    _rejects([(1, 2), (0, 2)],
             "not an antichain: (Fraction(0, 1), Fraction(2, 1)) and "
             "(Fraction(1, 1), Fraction(2, 1)) are comparable")
    assert MinimalPointSet([[2, 0], (0, 1)]).points == ((0, 1), (2, 0))
