"""The integer-row kernel against the Fraction reference code in oracles.py:
the simplex, cone membership, rank and double description must agree
exactly, value for value, on small random rational inputs."""

from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from closurelab import linalg, lp
from closurelab.lp import cone_membership, solve_lp
from closurelab.polyhedron import dd_cone
from oracles import fraction_dd_cone, fraction_rank, fraction_simplex, simplex_standard

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


def _all_fractions(*vectors):
    return all(type(q) is F for v in vectors if v is not None for q in v)


@PROPERTY
@given(lps())
@example(BEALE)
@example(INFEASIBLE)
@example(UNBOUNDED)
@example(NO_ROWS)
def test_solve_lp_matches_fraction_simplex(args):
    got = solve_lp(*args)
    with fraction_simplex():
        want = solve_lp(*args)
    assert got == want
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
    got = lp._simplex_standard(*args)
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


@PROPERTY
@given(row_lists(max_dim=4))
@example((3, []))
@example((2, [V([0, 0]), V([1, 0]), V([-1, 0])]))
@example((3, [V([-1, 0, 0]), V([0, -1, 0]), V([0, 0, -1]), V([1, 1, -1])]))
def test_dd_cone_matches_fraction_reference(args):
    dim, rows = args
    got = dd_cone(rows, dim)
    assert got == fraction_dd_cone(rows, dim)
    assert _all_fractions(*got[0], *got[1])


def test_int_row_and_combine():
    assert linalg.int_row(V([F(1, 2), F(-3, 4), 0])) == [2, -3, 0]
    assert linalg.int_row([4, 6]) == [2, 3]
    assert linalg.int_row(V([0, 0])) == [0, 0]
    assert linalg.int_row(()) == []
    # 3*(1, 2) - 1*(3, 0) = (0, 6), reduced by its gcd
    assert linalg.combine(3, [1, 2], 1, [3, 0]) == [0, 1]
    assert linalg.combine(1, [1, 1], 1, [1, 1]) == [0, 0]
