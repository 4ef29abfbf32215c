"""The integer-row hull pipeline against the Fraction reference in
oracles.py: aggregation, the minimal point checks, V to H and the sampled
closure must agree exactly, row for row, on covering instances with
rational entries and zero rows or columns."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import linalg
from closurelab.aggregation import AggregationSample, aggregate, closure_approx
from closurelab.covering import (CoveringInstance, MinimalPointSet, integer_hull,
                                 minimal_integer_points)
from closurelab.errors import ContractViolation
from oracles import (VPolyhedron, fraction_aggregate, fraction_closure_approx,
                     fraction_integer_hull, fraction_minimal_point_set, fraction_v_to_h)

PROPERTY = settings(max_examples=120, deadline=None, derandomize=True, database=None)

entries = st.sampled_from((F(0), F(0), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3)))
demands = st.sampled_from((F(0), F(1), F(3, 2), F(2), F(7, 3), F(3), F(4)))


@st.composite
def coverings(draw):
    """A covering instance with 1-3 variables and 1-3 rows; a zero column
    comes up often, and a row drawn all zero gets demand 0 (a zero row)."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rows, demand = [], []
    for _ in range(m):
        row = tuple(draw(entries) for _ in range(n))
        rows.append(row)
        demand.append(draw(demands) if any(row) else F(0))
    return CoveringInstance(tuple(rows), tuple(demand))


@st.composite
def closure_runs(draw):
    q = draw(coverings())
    # k = 2 only for two rows, so a run stays at a few dozen hulls
    k = draw(st.integers(1, 2)) if q.m == 2 else 1
    return q, k, draw(st.integers(1, 2))


# Scaling each row of [M | d] to primitive form on its own gives the rows
# (1, 0 | 1) and (0, 1 | 1), whose sum x1 + x2 >= 2 is not the (1, 1)
# aggregation 3 x1 + 2 x2 >= 5 of these rows.
ROW_SCALES_MATTER = CoveringInstance(((F(1, 2), 0), (0, F(1, 3))), (F(1, 2), F(1, 3)))
# a zero row, a zero column and unequal row denominators
ZERO_ROW_AND_COLUMN = CoveringInstance(
    ((F(1, 3), 0, F(2, 5)), (0, 0, 0), (1, 0, F(1, 2))), (F(4, 3), 0, F(5, 2)))


def _rows(p):
    return [q.stacked() for q in p.inequalities]


def _all_fractions(*vectors):
    return all(type(a) is F for v in vectors for a in v)


def test_aggregation_shares_one_scale_across_rows():
    out = aggregate(ROW_SCALES_MATTER, AggregationSample(((1, 1),)))
    assert (out.M, out.d) == (((3, 2),), (5,))
    assert _rows(integer_hull(out)) == _rows(fraction_integer_hull(out))


@PROPERTY
@given(closure_runs())
@example((ROW_SCALES_MATTER, 1, 2))
@example((ROW_SCALES_MATTER, 2, 1))
@example((ZERO_ROW_AND_COLUMN, 1, 2))
def test_closure_matches_fraction_pipeline(args):
    q, k, density = args
    got = closure_approx(q, k, density)
    want = fraction_closure_approx(q, k, density)
    assert got.stabilized == want.stabilized
    assert got.samples == want.samples
    assert _rows(got.polyhedron) == _rows(want.polyhedron)
    # the hulls built are a grid-order prefix of the reference's
    assert 0 < len(got.hulls) <= len(want.hulls)
    for have, ref in zip(got.hulls, want.hulls[:len(got.hulls)], strict=True):
        assert have.polyhedron == ref.polyhedron == fraction_aggregate(q, have.sample)
        assert _rows(have.hull) == _rows(ref.hull)
        assert _all_fractions(*have.polyhedron.M, have.polyhedron.d, *_rows(have.hull))
    assert _all_fractions(*_rows(got.polyhedron))


naturals = st.one_of(st.integers(-1, 3), st.sampled_from((F(2), F(1, 2), F(-1), "1", "3/2")))


@PROPERTY
@given(st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(naturals, min_size=n, max_size=n).map(tuple), max_size=5)))
@example([(1, 2), (0, 2)])
@example([(0, 3), (1, 2), (1, 1)])
@example([(F(1, 2), 1), (-1, 0)])
def test_minimal_point_set_checks_match_fraction_reference(points):
    try:
        want = fraction_minimal_point_set(points)
    except ContractViolation as exc:
        with pytest.raises(ContractViolation, match=f"^{re.escape(str(exc))}$"):
            MinimalPointSet(tuple(points))
        return
    got = MinimalPointSet(tuple(points))
    assert got.points == want and _all_fractions(*got.points)
    assert repr(got) == f"MinimalPointSet(points={want!r})"
    # the same points given as ints and as Fractions make one equal set
    for same in (MinimalPointSet(tuple(tuple(map(int, p)) for p in want)),
                 MinimalPointSet(want)):
        assert same == got and hash(same) == hash(got) and same.points == want
    if want:
        n = len(want[0])
        rays = tuple(linalg.unit(n, j) for j in range(n))
        assert _rows(got.hull()) == _rows(fraction_v_to_h(VPolyhedron(n, want, rays)))


@st.composite
def long_point_lists(draw):
    """Up to 60 minimal points of a covering instance in N^1 to N^4, in a
    drawn order, and in three draws of four one more point inserted at a
    drawn position: a copy of one of them, or a point above or below one
    (a copy again when the step is 0)."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    # demands that give dozens of minimal points, scanned in a few hundred prefixes
    cap = {1: 9, 2: 80, 3: 16, 4: 8}[n]
    demand = st.integers(cap // 2, cap)
    rows = tuple(tuple(draw(st.integers(1, 3)) for _ in range(n)) for _ in range(m))
    q = CoveringInstance(rows, tuple(draw(demand) for _ in rows))
    points = draw(st.permutations(minimal_integer_points(q).int_points))[:60]
    extra = draw(st.sampled_from(("none", "copy", "above", "below")))
    if extra != "none":
        base = draw(st.sampled_from(points))
        step = tuple(draw(st.integers(0, 2)) for _ in range(n))
        if extra == "above":
            point = tuple(a + b for a, b in zip(base, step))
        elif extra == "below":
            point = tuple(max(a - b, 0) for a, b in zip(base, step))
        else:
            point = base
        points.insert(draw(st.integers(0, len(points))), point)
    return points


@PROPERTY
@given(long_point_lists())
def test_minimal_point_set_reports_the_reference_pair_on_long_lists(points):
    try:
        want = fraction_minimal_point_set(points)
    except ContractViolation as exc:
        with pytest.raises(ContractViolation, match=f"^{re.escape(str(exc))}$"):
            MinimalPointSet(points)
    else:
        assert MinimalPointSet(points).points == want
