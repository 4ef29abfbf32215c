"""The integer-row kernel against the Fraction reference code in oracles.py:
the simplex, cone membership, rank and double description must agree
exactly, value for value, on small random rational inputs."""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from closurelab import linalg, lp
from closurelab.lp import cone_membership, solve_lp
from closurelab.polyhedron import dd_cone
from oracles import (add, fraction_dd_cone, fraction_rank, fraction_simplex, fraction_solve_lp,
                     integer_rows, scale, simplex_standard)

V = linalg.vector

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# zeros are drawn often: degenerate bases and redundant rows are where
# Bland's tie-breaks and the artificial drive-out pivots happen
rationals = st.one_of(st.just(F(0)),
                      st.builds(F, st.integers(-4, 4), st.sampled_from((1, 1, 1, 2, 3))))


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n).map(tuple)


@st.composite
def lps(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, 4))
    a = tuple(draw(vectors(n)) for _ in range(m))
    return a, draw(vectors(m)), draw(vectors(n)), draw(st.sampled_from(("max", "min")))


@st.composite
def standard_forms(draw):
    cols = draw(st.integers(1, 5))
    m = draw(st.integers(0, 4))
    rows = tuple(draw(vectors(cols)) for _ in range(m))
    # mostly-zero right-hand sides leave artificials basic at level zero
    rhs = draw(st.lists(st.sampled_from((F(0), F(0), F(1), F(-1))), min_size=m, max_size=m))
    return rows, tuple(rhs), draw(vectors(cols))


@st.composite
def row_lists(draw, max_dim=5):
    dim = draw(st.integers(1, max_dim))
    rows = draw(st.lists(vectors(dim), max_size=6))
    return dim, rows


BEALE = (
    (V([F(1, 4), -60, F(-1, 25), 9]), V([F(1, 2), -90, F(-1, 50), 3]), V([0, 0, 1, 0]),
     V([-1, 0, 0, 0]), V([0, -1, 0, 0]), V([0, 0, -1, 0]), V([0, 0, 0, -1])),
    V([0, 0, 1, 0, 0, 0, 0]),
    V([F(-3, 4), 150, F(-1, 50), 6]),
    "min",
)
INFEASIBLE = ((V([1]), V([-1])), V([-1, 0]), V([0]), "max")
UNBOUNDED = ((V([-1, 0]), V([0, -1])), V([0, 0]), V([1, 2]), "max")
NO_ROWS = ((), (), V([0, 1]), "max")
# scaling a_i and b_i without the slack and the artificial reweights phase
# 1, and this Farkas vector comes out (3, 1, 9, 0) instead of (1, 0, 2, 0)
THIRDS_FARKAS = ((V([2]), V([3]), V([-1]), V([0])), V([-1, -1, F(-4, 3), 2]), V([1]), "max")


def _all_fractions(*vectors):
    return all(type(q) is F for v in vectors if v is not None for q in v)


def _int_rows(rows):
    """dd_cone's input: the rows as primitive integer rows."""
    return [linalg.int_row(r) for r in rows]


def _all_int_tuples(rows):
    return all(type(r) is tuple and all(type(a) is int for a in r) for r in rows)


@PROPERTY
@given(lps())
@example(BEALE)
@example(INFEASIBLE)
@example(UNBOUNDED)
@example(NO_ROWS)
@example(THIRDS_FARKAS)
def test_solve_lp_matches_fraction_simplex(args):
    got = solve_lp(*args)
    with fraction_simplex():
        want = solve_lp(*args)
    assert got == want
    assert got == fraction_solve_lp(*args)
    assert _all_fractions(got.x, got.certificate)


@settings(PROPERTY, max_examples=1000)
@given(standard_forms())
@example((BEALE[0], BEALE[1], BEALE[2]))
@example(((), (), V([0, -1])))
@example(((V([1, 1]), V([2, 2])), V([1, 2]), V([1, 0])))
@example(((V([1, 1]), V([1, 1])), V([1, 1]), V([1, -1])))
@example(((V([-2, -2, 0, 0]),), V([0]), V([-2, -1, 1, 0])))  # negative drive-out pivots
@example(((V([-1, -2]),), V([0]), V([-2, 0])))
def test_simplex_outcomes_match_fraction_simplex(args):
    # duals, primal z and raw rays are visible only here
    rows, rhs, costs = args
    got = lp._simplex_standard(integer_rows(rows, rhs), costs)
    assert got == simplex_standard(*args)
    assert _all_fractions(*got[1:])


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.lists(vectors(d), max_size=5), vectors(d))))
@example(([], V([0, 0])))
@example(([V([1, 0]), V([0, 1])], V([-1, 0])))
@example(([V([1, 1]), V([-1, -1])], V([2, 2])))
def test_cone_membership_matches_fraction_simplex(args):
    generators, target = args
    got = cone_membership(generators, target)
    with fraction_simplex():
        want = cone_membership(generators, target)
    assert got == want
    assert _all_fractions(got.multipliers, got.separator)


@PROPERTY
@given(row_lists())
@example((3, [V([1, 2, 3]), V([2, 4, 6]), V([0, 0, 1])]))
@example((2, [V([0, 0]), V([0, 0])]))
@example((2, []))
def test_rank_matches_fraction_rank(args):
    _, rows = args
    assert linalg.rank(rows) == fraction_rank(rows)
    ints = [linalg.int_row(r) for r in rows]
    assert linalg.rank(ints) == fraction_rank(rows)


@st.composite
def degenerate_row_lists(draw):
    """A few base rows plus repeats, negations, positive multiples and sums
    of them, shuffled: many rays tight at one row set, flat cones and
    duplicated rows, where the adjacency test leans on its invariant."""
    dim = draw(st.integers(1, 5))
    # small integer rows meet in many common zeros
    small = st.lists(st.integers(-2, 2).map(F), min_size=dim, max_size=dim).map(tuple)
    rows = draw(st.lists(st.one_of(vectors(dim), small), min_size=2, max_size=6))
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append(draw(st.sampled_from((
            a, linalg.neg(a), scale(draw(st.integers(2, 3)), a), add(a, b)))))
    return dim, draw(st.permutations(rows))


# homogenized square pyramid {(x, t) : a.x <= b.t, t >= 0} in R^4: the apex
# ray (1, 1, 2, 2) is tight at all four side rows, and the four base rays at
# the base row -z <= 0
PYRAMID = (4, [V([0, -2, 1, 0]), V([-2, 0, 1, 0]), V([0, 2, 1, -2]), V([2, 0, 1, -2]),
               V([0, 0, -1, 0]), V([0, 0, 0, -1])])
# a row and its negation after two line steps: the cone is flat
FLAT = (3, [V([-1, 0, 0]), V([1, 1, 0]), V([-1, -1, 0]), V([0, 0, -1])])
# the first row is a line step, its repeat an ordinary step
REPEAT_AFTER_LINE = (3, [V([1, 1, 0]), V([0, -1, 1]), V([1, 1, 0]), V([0, 0, -1])])
# the homogenized unit cube, its bottom row given twice, cut by x + y <= 1:
# the bottom diagonal's ends share two rows, as many as an edge needs, but
# the other bottom vertices contain that zero set, so they are not adjacent
CUT_CUBE = (4, [V([1, 0, 0, -1]), V([-1, 0, 0, 0]), V([0, 1, 0, -1]), V([0, -1, 0, 0]),
                V([0, 0, 1, -1]), V([0, 0, -1, 0]), V([0, 0, -2, 0]), V([0, 0, 0, -1]),
                V([1, 1, 0, -1])])

# a ray tight at a row keeps that row in its zero set: the last row pairs
# two rays that were both tight at (2, 0, 0, 0) before it came
TIGHT_BEFORE = (4, [V([2, 1, 0, 0]), V([1, 0, 0, 1]), V([2, 0, 0, 0]), V([0, 0, 0, -1]),
                    V([-1, 2, 0, 1])])


@PROPERTY
@given(row_lists(max_dim=4))
@example((3, []))
@example((2, [V([0, 0]), V([1, 0]), V([-1, 0])]))
@example((3, [V([-1, 0, 0]), V([0, -1, 0]), V([0, 0, -1]), V([1, 1, -1])]))
def test_dd_cone_matches_fraction_reference(args):
    # integer rows in and out; equal values compare equal to Fractions
    dim, rows = args
    got = dd_cone(_int_rows(rows), dim)
    assert got == fraction_dd_cone(rows, dim)
    assert _all_int_tuples(got[0] + got[1])


@settings(PROPERTY, max_examples=500)
@given(degenerate_row_lists())
@example(PYRAMID)
@example(FLAT)
@example(REPEAT_AFTER_LINE)
@example(CUT_CUBE)
@example(TIGHT_BEFORE)
def test_dd_cone_matches_fraction_reference_on_degenerate_rows(args):
    dim, rows = args
    assert dd_cone(_int_rows(rows), dim) == fraction_dd_cone(rows, dim)


def test_dd_cone_takes_no_rank(monkeypatch):
    # adjacency is decided from zero sets alone
    def no_rank(rows):
        raise AssertionError("dd_cone called linalg.rank")

    cases = [PYRAMID, FLAT, REPEAT_AFTER_LINE, CUT_CUBE, TIGHT_BEFORE]
    want = [fraction_dd_cone(rows, dim) for dim, rows in cases]
    monkeypatch.setattr(linalg, "rank", no_rank)
    assert [dd_cone(_int_rows(rows), dim) for dim, rows in cases] == want
    # the square pyramid has one apex and four base vertices
    assert len(want[0][1]) == 5 and V([1, 1, 2, 2]) in want[0][1]


def test_int_row_and_combine():
    assert linalg.int_row(V([F(1, 2), F(-3, 4), 0])) == [2, -3, 0]
    assert linalg.int_row([4, 6]) == [2, 3]
    assert linalg.int_row(V([0, 0])) == [0, 0]
    assert linalg.int_row(()) == []
    # 3*(1, 2) - 1*(3, 0) = (0, 6), reduced by its gcd
    assert linalg.combine(3, [1, 2], 1, [3, 0]) == [0, 1]
    assert linalg.combine(1, [1, 1], 1, [1, 1]) == [0, 0]
