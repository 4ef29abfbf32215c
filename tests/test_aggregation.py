"""Aggregation closures: sampling grid, aggregation, intersection,
classification, and projection commutation on single rows."""

import random
from dataclasses import replace
from fractions import Fraction as F
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import aggregation, linalg
from closurelab.aggregation import (
    HULL_FACET,
    SIGN,
    AggregationSample,
    aggregate,
    classify_cuts,
    closure_approx,
    multiplier_rows,
    sample_multipliers,
)
from closurelab.covering import CoveringInstance, MinimalPointSet, minimal_integer_points
from closurelab.errors import ContractViolation
from closurelab.io import parse_instance
from closurelab.polyhedron import (HPolyhedron, Inequality, check_implication, remove_redundant,
                                   sorted_unique)
from closurelab.verify import random_single_row
from oracles import (doubling_stabilized, full_closure_approx, ge, intersect_hulls,
                     lp_same_point_set, project_instance, projection_lemma_sides)

V = linalg.vector
INSTANCES = Path(__file__).resolve().parent.parent / "instances"

TWO_ROW = CoveringInstance(([1, 2], [2, 1]), (3, 3))
# stabilized at density 2 but not exact: density 8 finds a cut density 4 misses
FALSE_STABILIZATION = parse_instance((INSTANCES / "false_stabilization.txt").read_text())


def rows_of(samples):
    return [s.multipliers for s in samples]


def test_sampler_unit_vectors_only():
    assert rows_of(sample_multipliers(2, 1, 1)) == [(V([0, 1]),), (V([1, 0]),)]


def test_sampler_density_two_adds_diagonal():
    assert rows_of(sample_multipliers(2, 1, 2)) == [
        (V([0, 1]),), (V([1, 0]),), (V([1, 1]),)]


def test_sampler_pairs_drop_covered_tuples():
    assert rows_of(sample_multipliers(2, 2, 1)) == [(V([0, 1]), V([1, 0]))]


def test_sampler_single_row_collapses():
    assert rows_of(sample_multipliers(1, 2, 4)) == [(V([1]),)]


def test_multiplier_rows_are_primitive_denominator_grid():
    rows = multiplier_rows(2, 8)
    from math import gcd
    expected = sorted(
        V((a, b)) for a in range(9) for b in range(9)
        if 1 <= a + b <= 8 and gcd(a, b) == 1)
    assert list(rows) == expected
    # by definition: the primitive form of every nonzero nonnegative
    # integer row of total at most density, once each, in sorted order
    for m in range(1, 6):
        for density in range(1, 9 if m < 5 else 6):
            grid = product(range(density + 1), repeat=m)
            expected = sorted({linalg.primitive(V(row)) for row in grid
                               if 1 <= sum(row) <= density})
            assert list(multiplier_rows(m, density)) == expected, (m, density)


def test_aggregate_selects_row():
    out = aggregate(TWO_ROW, AggregationSample(((1, 0),)))
    assert out.M == (V([1, 2]),) and out.d == V([3])


def test_aggregate_row_sum_canonicalized():
    out = aggregate(TWO_ROW, AggregationSample(((1, 1),)))
    assert out.M == (V([1, 1]),) and out.d == V([2])


def test_aggregate_scaling_invariance():
    half = aggregate(TWO_ROW, AggregationSample(((F(1, 2), F(1, 2)),)))
    whole = aggregate(TWO_ROW, AggregationSample(((1, 1),)))
    assert half == whole


def test_aggregate_zero_row_is_trivial():
    out = aggregate(TWO_ROW, AggregationSample(((0, 0), (1, 0))))
    assert out.M == (V([0, 0]), V([1, 2]))
    assert out.d == V([0, 3])


def test_aggregate_checks_the_multiplier_row_width():
    # a sample does not know the instance; aggregate checks it against q.m
    with pytest.raises(ContractViolation, match="^multiplier row has length 3, expected 2$"):
        aggregate(TWO_ROW, AggregationSample(((1, 0, 1),)))
    with pytest.raises(ContractViolation, match="^multiplier row has length 1, expected 2$"):
        aggregate(TWO_ROW, AggregationSample(((1,),)))


def test_sample_validation():
    with pytest.raises(ContractViolation):
        AggregationSample(((0, 0),))
    with pytest.raises(ContractViolation):
        AggregationSample(((-1, 1),))
    with pytest.raises(ContractViolation):
        AggregationSample(())


def test_closure_single_row_equals_hull():
    q = CoveringInstance(([1, 2],), (3,))
    ca = closure_approx(q, 1, 4)
    assert ca.stabilized
    assert lp_same_point_set(ca.polyhedron, minimal_integer_points(q).hull())
    assert set(ca.polyhedron.inequalities) == {ge([1, 1], 2), ge([1, 2], 3),
                                               ge([1, 0], 0), ge([0, 1], 0)}


def test_closure_single_row_exact_for_k_and_density():
    rng = random.Random(2)
    for _ in range(5):
        q = random_single_row(rng)
        hull = minimal_integer_points(q).hull()
        for k, density in ((1, 1), (2, 3)):
            ca = closure_approx(q, k, density)
            assert ca.stabilized
            assert lp_same_point_set(ca.polyhedron, hull)


# at density 1 the (1, 1) aggregation is missing: not stabilized
KNAPSACK_PAIR = parse_instance((INSTANCES / "knapsack_pair.txt").read_text())
# stabilized at k = 1, density 4, yet the approximation is larger than P_I
ABOVE_HULL = CoveringInstance(([4, 4], [1, 4]), (6, 3))


def _covering_prefix(q, samples):
    """The length of the shortest grid-order prefix of samples whose
    aggregated hulls hold every facet of P_I as a row, or None."""
    uncovered = set(minimal_integer_points(q).hull().inequalities)
    for j, s in enumerate(samples, 1):
        uncovered -= set(minimal_integer_points(aggregate(q, s)).hull().inequalities)
        if not uncovered:
            return j
    return None


@pytest.fixture
def counted(monkeypatch):
    """Two lists that closure_approx fills while the test runs: the
    aggregated instances it scans for minimal points, and the point sets
    whose hull it builds (one double description each)."""
    scans, hulls = [], []
    scan, hull = aggregation.minimal_integer_points, MinimalPointSet.hull

    def counted_scan(q):
        scans.append(q)
        return scan(q)

    def counted_hull(points):
        hulls.append(points)
        return hull(points)

    monkeypatch.setattr(aggregation, "minimal_integer_points", counted_scan)
    monkeypatch.setattr(MinimalPointSet, "hull", counted_hull)
    return scans, hulls


def _counted_closure(counted, q, k, density):
    """closure_approx(q, k, density) with the instances it scanned and the
    point sets it hulled, and nothing the caller counted before."""
    for calls in counted:
        calls.clear()
    ca = closure_approx(q, k, density)
    return ca, *map(list, counted)


def test_closure_builds_one_hull_per_aggregated_instance(counted):
    """Scanned: q itself, whose hull P_I is built first, and the density-D
    instances in grid order up to the first sample where their hulls hold
    every facet of P_I; when no sample gets there, every density-D
    instance and every density-2D one.  Each distinct instance is scanned
    once, and each distinct set of minimal points among them hulled once."""
    own = AggregationSample(multiplier_rows(2, 1))
    for q, k, density, stabilized, at_hull in (
            (TWO_ROW, 1, 2, True, True), (TWO_ROW, 2, 2, True, True),
            (KNAPSACK_PAIR, 1, 1, False, False), (ABOVE_HULL, 1, 4, True, False)):
        samples = sample_multipliers(2, k, density)
        stop = _covering_prefix(q, samples)
        assert (stop is not None) == at_hull
        ca, built, hulled = _counted_closure(counted, q, k, density)
        assert ca.stabilized == stabilized
        assert (ca.polyhedron == minimal_integer_points(q).hull()) == at_hull
        assert ca.samples == samples
        if at_hull:
            assert [h.sample for h in ca.hulls] == list(samples[:stop])
            expected = {aggregate(q, s) for s in samples[:stop]}
        else:
            assert [h.sample for h in ca.hulls] == list(samples)
            expected = {aggregate(q, s) for d in (density, 2 * density)
                        for s in sample_multipliers(2, k, d)}
        # q itself is a density-D instance here exactly when k = m
        assert (aggregate(q, own) in expected) == (k == q.m)
        assert len(built) == len(set(built))
        assert set(built) == expected | {aggregate(q, own)}
        assert len(hulled) == len(set(hulled))
        assert set(hulled) == set(map(minimal_integer_points, built))


def test_closure_hulls_p_i_from_q_and_shares_it_with_a_covering_sample(counted):
    """At k > m and density >= 2 the first density-D sample holds every
    unit row, so its aggregated instance has exactly q's integer points.
    P_I is still read from q's own instance: both are scanned, their
    minimal points are the same, and one hull serves both.  That hull
    covers P_I, so no other instance is scanned."""
    own = aggregate(TWO_ROW, AggregationSample(multiplier_rows(2, 1)))
    for density, samples in ((2, 1), (3, 10)):
        ca, built, hulled = _counted_closure(counted, TWO_ROW, 3, density)
        assert built[0] == own
        assert built[1] == aggregate(TWO_ROW, ca.samples[0])
        assert len(built) == len(set(built)) == 2
        assert len(hulled) == len(ca.hulls) == 1
        assert len(ca.samples) == samples
        assert ca.polyhedron == minimal_integer_points(TWO_ROW).hull()
        assert ca.stabilized == doubling_stabilized(TWO_ROW, 3, density)


PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# the oracle always builds every density-2D hull; larger runs take seconds each
MAX_DOUBLED_TUPLES = 300


@st.composite
def coverings(draw):
    """1-3 variables and rows, integer entries with zeros common; a row
    drawn all zero gets demand 0."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entries = st.sampled_from((0, 0, 1, 2, 3, 4, 5))
    rows = [tuple(draw(entries) for _ in range(n)) for _ in range(m)]
    demand = [draw(st.integers(0, 9)) if any(row) else 0 for row in rows]
    return CoveringInstance(tuple(rows), tuple(demand))


def _doubled_tuples(m, k, density):
    rows = len(multiplier_rows(m, 2 * density))
    return comb(rows, min(k, rows))


@st.composite
def closure_runs(draw):
    q = draw(coverings())
    k, density = draw(st.tuples(st.integers(1, 3), st.integers(1, 3)).filter(
        lambda kd: _doubled_tuples(q.m, *kd) <= MAX_DOUBLED_TUPLES))
    return q, k, density


@PROPERTY
@given(closure_runs())
@example((KNAPSACK_PAIR, 1, 1))
@example((ABOVE_HULL, 1, 4))
@example((FALSE_STABILIZATION, 1, 2))
@example((FALSE_STABILIZATION, 1, 4))
def test_stabilized_matches_the_doubling_pass(args):
    q, k, density = args
    assert closure_approx(q, k, density).stabilized == doubling_stabilized(q, k, density)


def _facet_rows(p):
    return [f.stacked() for f in p.inequalities]


def _cut_rows(ca):
    return [(c.inequality.stacked(), c.label, c.sample) for c in classify_cuts(ca)]


@PROPERTY
@given(closure_runs())
@example((KNAPSACK_PAIR, 1, 1))
@example((ABOVE_HULL, 1, 4))
@example((TWO_ROW, 3, 3))
def test_closure_matches_the_full_intersection(args):
    """Stopping once the hulls built cover P_I changes no answer: the
    rows, stabilized, the samples and each cut's label and source are
    those of building every hull, of which the hulls built are a prefix."""
    q, k, density = args
    got, want = closure_approx(q, k, density), full_closure_approx(q, k, density)
    assert _facet_rows(got.polyhedron) == _facet_rows(want.polyhedron)
    assert got.stabilized == want.stabilized
    assert got.samples == want.samples
    assert _cut_rows(got) == _cut_rows(want)
    assert 0 < len(got.hulls) <= len(want.hulls)
    assert got.hulls == want.hulls[:len(got.hulls)]


def test_three_row_pair_closure_stops_after_32_hulls(counted):
    """P_I and the first 31 of 6903 density-8 samples: their hulls hold
    every facet of P_I, so no other instance is scanned.  The 32 instances
    have 5 distinct sets of minimal points, and so 5 hulls are built."""
    q = parse_instance((INSTANCES / "three_row.txt").read_text())
    ca, built, hulled = _counted_closure(counted, q, 2, 8)
    assert (len(built), len(hulled)) == (32, 5)
    assert (len(ca.hulls), len(ca.samples), ca.stabilized) == (31, 6903, True)


# k = 1, D = 4: the hulls never cover P_I, so every density-4 and density-8
# instance is scanned, and q's own rows (k < m) as well
NEVER_COVERS = CoveringInstance(([4, 2, 1], [4, 3, 3], [2, 1, 3]), (4, 6, 3))


def test_closure_hulls_each_distinct_point_set_once(counted):
    """119 distinct aggregated instances are scanned, but they have only 9
    distinct sets of minimal points, so 9 hulls are built for 22 samples."""
    ca, built, hulled = _counted_closure(counted, NEVER_COVERS, 1, 4)
    assert (len(built), len(hulled)) == (119, 9)
    assert (len(ca.hulls), len(ca.samples), ca.stabilized) == (22, 22, False)
    assert len({id(h.hull) for h in ca.hulls}) < len(
        {aggregate(NEVER_COVERS, h.sample) for h in ca.hulls})


@PROPERTY
@given(closure_runs())
@example((NEVER_COVERS, 1, 2))
def test_hulls_are_shared_exactly_by_equal_point_sets(args):
    """Every hull closure_approx returns is its instance's integer hull,
    and two instances share one hull object exactly when their minimal
    points are equal."""
    q = args[0]
    ca = closure_approx(*args)
    for h in ca.hulls:
        assert h.hull == minimal_integer_points(aggregate(q, h.sample)).hull()
    for a, b in product(ca.hulls, repeat=2):
        same_points = (minimal_integer_points(aggregate(q, a.sample))
                       == minimal_integer_points(aggregate(q, b.sample)))
        assert (a.hull is b.hull) == same_points


@PROPERTY
@given(coverings())
def test_own_rows_hull_is_its_own_intersection(q):
    """closure_approx compares its approximation with this hull directly:
    the hull of q's rows is P_I, and intersecting it alone keeps it row
    for row."""
    sample = AggregationSample(multiplier_rows(q.m, 1))
    [own] = aggregation._hulls_for(q, [sample], {}, {})
    assert own.hull == minimal_integer_points(q).hull() == intersect_hulls(q.n, [own])


@pytest.mark.parametrize("name, stabilized", [
    ("three_row.txt", False), ("false_stabilization.txt", True)])
def test_doubling_pass_reduces_one_intersection(monkeypatch, name, stabilized):
    """A run whose hulls never cover P_I reduces the density-D intersection
    once; the density-2D hulls are only asked whether they contain it."""
    q = parse_instance((INSTANCES / name).read_text())
    calls = []

    def counting(p):
        calls.append(p)
        return remove_redundant(p)

    monkeypatch.setattr(aggregation, "remove_redundant", counting)
    ca = closure_approx(q, 1, 2)
    assert len(ca.hulls) == len(ca.samples)
    assert ca.polyhedron != minimal_integer_points(q).hull()
    assert (ca.stabilized, len(calls)) == (stabilized, 1)


def test_closure_two_row_matches_denominator_grid_oracle():
    ca = closure_approx(TWO_ROW, 1, 8)
    pool = []
    for lam in multiplier_rows(2, 8):
        agg = aggregate(TWO_ROW, AggregationSample((lam,)))
        pool.extend(minimal_integer_points(agg).hull().inequalities)
    oracle = remove_redundant(HPolyhedron(2, sorted_unique(pool)))
    assert lp_same_point_set(ca.polyhedron, oracle)


def test_closure_contains_hull_and_sits_in_sampled_hulls():
    ca = closure_approx(TWO_ROW, 1, 4)
    hull = minimal_integer_points(TWO_ROW).hull()
    for t in ca.polyhedron.inequalities:
        assert check_implication(hull.inequalities, t).implied
    for h in ca.hulls:
        for t in h.hull.inequalities:
            assert check_implication(ca.polyhedron.inequalities, t).implied


def test_closure_density_monotone():
    lo = closure_approx(TWO_ROW, 1, 2)
    hi = closure_approx(TWO_ROW, 1, 4)
    for t in lo.polyhedron.inequalities:
        assert check_implication(hi.polyhedron.inequalities, t).implied


def test_closure_k_monotone():
    base = closure_approx(TWO_ROW, 1, 2)
    deeper = closure_approx(TWO_ROW, 2, 2)
    for t in base.polyhedron.inequalities:
        assert check_implication(deeper.polyhedron.inequalities, t).implied


def test_classify_single_row():
    q = CoveringInstance(([1, 2],), (3,))
    ca = closure_approx(q, 1, 1)
    labels = {format_key(c.inequality): c.label for c in classify_cuts(ca)}
    assert labels == {
        "1 1 >= 2": HULL_FACET,
        "1 2 >= 3": HULL_FACET,
        "1 0 >= 0": SIGN,
        "0 1 >= 0": SIGN,
    }
    for c in classify_cuts(ca):
        if c.label == HULL_FACET:
            assert c.sample.multipliers == (V([1]),)


def format_key(q):
    from closurelab.polyhedron import format_ge
    return format_ge(q)


def test_classify_orthant_all_sign():
    q = CoveringInstance(([1, 2], [2, 1]), (0, 0))
    ca = closure_approx(q, 1, 2)
    assert all(c.label == SIGN for c in classify_cuts(ca))


def test_classify_stabilized_two_row_fully_attributed():
    ca = closure_approx(TWO_ROW, 1, 8)
    assert ca.stabilized
    assert all(c.label in (SIGN, HULL_FACET) for c in classify_cuts(ca))


def test_classify_rejects_a_row_of_no_hull():
    # closure_approx only yields hull rows; a hand-built closure can break that
    ca = closure_approx(TWO_ROW, 1, 2)
    stray = ge([1, 1], 1)
    assert all(stray not in h.hull.inequalities for h in ca.hulls)
    forged = replace(ca, polyhedron=HPolyhedron(2, ca.polyhedron.inequalities + (stray,)))
    with pytest.raises(ContractViolation, match="row 1 1 >= 1 is a row of no sampled hull"):
        classify_cuts(forged)


def test_classify_reads_a_sign_row_only_as_minus_x_j_le_0():
    # x1 <= 0 has one nonzero coefficient and right-hand side 0 like the
    # sign row -x1 <= 0, but it is no nonnegativity bound; with no hulls
    # it is a row of no sampled hull
    ca = closure_approx(TWO_ROW, 1, 2)
    forged = replace(ca, hulls=(), polyhedron=HPolyhedron(
        2, (Inequality([1, 0], 0), Inequality([-1, 0], 0))))
    with pytest.raises(ContractViolation,
                       match="^closure row -1 0 >= 0 is a row of no sampled hull$"):
        classify_cuts(forged)


def test_projection_instance_construction():
    q = CoveringInstance(([1, 2, 0], [0, 0, 3]), (3, 2))
    out = project_instance(q, 2)
    assert out.M == (V([1, 2]), V([0, 0]))
    assert out.d == V([3, 0])


def test_projection_lemma_unbounded_column():
    projected, closure = projection_lemma_sides(CoveringInstance(([1, 2],), (3,)), 1)
    assert projected == closure
    assert set(projected.inequalities) == {ge([1], 0)}


def test_projection_lemma_supported_row():
    projected, closure = projection_lemma_sides(CoveringInstance(([2, 0],), (3,)), 1)
    assert projected == closure
    assert set(projected.inequalities) == {ge([1], 2)}


def test_projection_lemma_simplex_row():
    projected, closure = projection_lemma_sides(CoveringInstance(([1, 1, 1],), (2,)), 2)
    assert projected == closure
    assert set(projected.inequalities) == {ge([1, 0], 0), ge([0, 1], 0)}


def test_projection_lemma_random_single_rows():
    rng = random.Random(33)
    for _ in range(6):
        q = random_single_row(rng, n=3)
        for t in (1, 2):
            projected, closure = projection_lemma_sides(q, t)
            assert projected == closure
