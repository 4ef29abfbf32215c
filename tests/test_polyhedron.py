"""Polyhedra: inequalities, V to H, reductions, and queries."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import linalg, polyhedron
from closurelab.errors import (
    ContractViolation,
    InconsistentSystemError,
    InternalInvariantError,
    ParseError,
)
from closurelab.polyhedron import (
    HPolyhedron,
    Inequality,
    check_implication,
    dimension,
    empty_hpolyhedron,
    format_ge,
    format_le,
    is_subset,
    parse_inequality,
    remove_redundant,
    sorted_unique,
)

from oracles import (VPolyhedron, _zero_set, add, as_double_description, fraction_format_ge,
                     fraction_format_le, fraction_rank, fraction_v_to_h, ge,
                     generator_rank_dimension, homogenization_dd, is_full_dimensional,
                     lp_dimension, lp_is_empty,
                     lp_is_facet_defining, lp_is_subset, lp_remove_redundant,
                     lp_same_point_set, lp_v_to_h, normal_rhs, rank_remove_redundant,
                     round_trip_h_to_v, scale, three_solve_implication, v_to_h)

V = linalg.vector

SQUARE = HPolyhedron(2, (Inequality([1, 0], 1), Inequality([-1, 0], 0),
                         Inequality([0, 1], 1), Inequality([0, -1], 0)))
WEDGE = HPolyhedron(2, (ge([1, 1], 2), ge([1, 2], 3), ge([1, 0], 0), ge([0, 1], 0)))


def test_inequality_identity_up_to_positive_scaling():
    assert Inequality([1, 2], 4) == Inequality([F(1, 2), 1], 2)
    assert Inequality([1, 2], 4) != Inequality([-1, -2], -4)
    assert hash(Inequality([2, 4], 8)) == hash(Inequality([1, 2], 4))


def test_inequality_stores_its_primitive_row_and_scale():
    q = Inequality([2, 4], 8)
    assert q.row == (1, 2, 4) and q.scale == 2
    assert repr(q) == "Inequality('2 4 <= 8')"
    assert q.stacked() == (F(2), F(4), F(8))
    assert q == Inequality([1, 2], 4) and repr(q) == "Inequality('2 4 <= 8')"
    for attr, value in (("row", (1, 1, 1)), ("scale", F(1))):
        with pytest.raises(AttributeError):
            setattr(q, attr, value)


RATIONALS = st.one_of(
    st.just(F(0)), st.integers(-9, 9).map(F),
    st.builds(F, st.integers(-10**20, 10**20), st.integers(1, 10**20)))


@st.composite
def inequality_pairs(draw):
    """Two (normal, rhs) pairs in one R^n, the second often a positive
    rescaling of the first; zero normals come with a nonnegative rhs."""
    n = draw(st.integers(1, 4))

    def one():
        normal = tuple(draw(RATIONALS) for _ in range(n))
        rhs = draw(RATIONALS)
        return normal, rhs if any(normal) else abs(rhs)

    first = one()
    if draw(st.booleans()):
        c = draw(st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)))
        return first, (tuple(c * a for a in first[0]), c * first[1])
    return first, one()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(inequality_pairs())
@example((((F(2), F(4)), F(8)), ((F(1), F(2)), F(4))))
@example((((F(0), F(0)), F(0)), ((F(0), F(0)), F(3, 7))))
def test_inequality_views_match_fraction_reference(pair):
    qs = [Inequality(normal, rhs) for normal, rhs in pair]
    for q, (normal, rhs) in zip(qs, pair):
        assert q.stacked() == normal + (rhs,)
        assert all(type(a) is F for a in q.stacked())
        assert format_le(q) == fraction_format_le(normal, rhs)
        assert format_ge(q) == fraction_format_ge(normal, rhs)
        assert repr(q) == f"Inequality({fraction_format_le(normal, rhs)!r})"
        r = q.row
        built, typed = polyhedron._from_row(r), Inequality(r[:-1], r[-1])
        assert built.scale == typed.scale == 1 and built.row == typed.row == r
        assert (built.stacked(), format_le(built), format_ge(built), repr(built)) == \
            (typed.stacked(), format_le(typed), format_ge(typed), repr(typed))
    same = linalg.primitive(pair[0][0] + (pair[0][1],)) == \
        linalg.primitive(pair[1][0] + (pair[1][1],))
    assert (qs[0] == qs[1]) == same
    assert not same or hash(qs[0]) == hash(qs[1])


def test_polyhedron_keeps_one_double_description(monkeypatch):
    # every query reads the DD the polyhedron keeps, made at most once, and
    # ==, hash and repr see only the rows, whether the DD exists yet or not;
    # every DD runs the one kernel counted here
    calls = []
    real = polyhedron._double_description

    def counted(rows, dim):
        calls.append(rows)
        return real(rows, dim)

    square_dd = SQUARE._dd
    monkeypatch.setattr(polyhedron, "_double_description", counted)
    rows = (Inequality([1, 0], 1), Inequality([-1, 0], 0), Inequality([0, 1], 1),
            Inequality([0, -1], 0), Inequality([1, 1], 3))
    p, fresh = HPolyhedron(2, rows), HPolyhedron(2, rows)
    before = (repr(p), hash(p))
    assert not p.is_empty and dimension(p) == 2
    assert remove_redundant(p).inequalities == rows[:4]
    assert is_subset(p, SQUARE) and p._dd[:2] == square_dd[:2]
    assert len(calls) == 1 and "_dd" in vars(p) and "_dd" not in vars(fresh)
    assert p == fresh and (repr(p), hash(p)) == (repr(fresh), hash(fresh)) == before
    # an irredundant input is its own answer, so the result keeps its DD
    square = HPolyhedron(2, rows[:4])
    assert remove_redundant(square) is square


def test_inequality_zero_normal_needs_nonnegative_rhs():
    Inequality([0, 0], 1)
    Inequality([0, 0], 0)
    with pytest.raises(ContractViolation):
        Inequality([0, 0], -1)


def test_polar_line_with_t_is_an_internal_error(monkeypatch):
    # the row (0, ..., 0, 1) forces t = 0 on every line of the polar cone,
    # so a line with t != 0 can only come from a broken double description;
    # the polyhedron is built fresh, since SQUARE may already keep its DD
    monkeypatch.setattr(polyhedron, "_double_description",
                        as_double_description(lambda rows, dim: (((0, 0, 1),), ((0, 0, 1),))))
    with pytest.raises(InternalInvariantError, match="line with t != 0"):
        dimension(HPolyhedron(SQUARE.n, SQUARE.inequalities))


def test_v_to_h_wedge():
    vp = VPolyhedron(2, (V([0, 2]), V([1, 1]), V([3, 0])), (V([1, 0]), V([0, 1])))
    hp = v_to_h(vp)
    assert set(hp.inequalities) == {ge([1, 1], 2), ge([1, 2], 3),
                                    ge([1, 0], 0), ge([0, 1], 0)}


def test_v_to_h_orthant_from_origin():
    hp = v_to_h(VPolyhedron(2, (V([0, 0]),), (V([1, 0]), V([0, 1]))))
    assert set(hp.inequalities) == {ge([1, 0], 0), ge([0, 1], 0)}


def test_v_to_h_of_a_flat_v_description_is_an_internal_error():
    # the segment lies on x2 = 0, a line of its polar cone; every
    # V-description the library converts is a full-dimensional hull
    with pytest.raises(InternalInvariantError, match="polar cone has a line"):
        v_to_h(VPolyhedron(2, (V([0, 0]), V([1, 0])), ()))


def test_v_to_h_rejects_all_empty():
    with pytest.raises(ContractViolation):
        v_to_h(VPolyhedron(2, (), ()))


small = st.builds(F, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))


@st.composite
def v_polyhedra(draw):
    """Full-dimensional, flat (vertices in a random affine subspace of
    dimension 0..n, rays in its direction space), single-point and
    rays-only V-polyhedra in R^1..R^3."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("full", "flat", "point", "rays")))

    def vec():
        return tuple(draw(st.lists(small, min_size=n, max_size=n)))

    if kind == "point":
        return VPolyhedron(n, (vec(),), ())
    if kind == "rays":
        return VPolyhedron(n, (), tuple(vec() for _ in range(draw(st.integers(1, 4)))))
    if kind == "full":
        return VPolyhedron(n, tuple(vec() for _ in range(draw(st.integers(1, 5)))),
                           tuple(vec() for _ in range(draw(st.integers(0, 3)))))
    base = vec()
    basis = [vec() for _ in range(draw(st.integers(0, n)))]

    def in_span(coeffs):
        out = linalg.zeros(n)
        for c, b in zip(coeffs, basis):
            out = add(out, scale(c, b))
        return out

    def coeffs():
        return draw(st.lists(small, min_size=len(basis), max_size=len(basis)))

    vertices = tuple(add(base, in_span(coeffs()))
                     for _ in range(draw(st.integers(1, 4))))
    rays = tuple(in_span(coeffs()) for _ in range(draw(st.integers(0, 2))))
    return VPolyhedron(n, vertices, rays)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(v_polyhedra())
def test_v_to_h_matches_lp_pruned_reference(p):
    if not is_full_dimensional(p):
        with pytest.raises(InternalInvariantError):
            v_to_h(p)
        return
    hp = v_to_h(p)
    assert [q.stacked() for q in hp.inequalities] == \
        [q.stacked() for q in lp_v_to_h(p).inequalities]
    assert remove_redundant(hp) == hp
    assert all(q.scale == 1 for q in hp.inequalities)


def test_whole_space_round_trip():
    space = HPolyhedron(2, ())
    vp = round_trip_h_to_v(space)
    assert vp.vertices == (V([0, 0]),)
    assert set(vp.rays) == {V([1, 0]), V([-1, 0]), V([0, 1]), V([0, -1])}
    back = v_to_h(vp)
    assert back.inequalities == ()


def test_single_point_round_trip():
    vp = VPolyhedron(2, (V([F(1, 2), 3]),), ())
    hp = fraction_v_to_h(vp)
    assert dimension(hp) == 0
    assert round_trip_h_to_v(hp).vertices == (V([F(1, 2), 3]),)


def test_round_trip_random_polyhedra():
    # negative right-hand sides let empty and flat cases through as well
    rng = random.Random(12)
    done = 0
    empties = 0
    while done < 16:
        n = rng.randint(1, 3)
        raw = [
            (V([rng.randint(-3, 3) for _ in range(n)]), F(rng.randint(-2, 5)))
            for _ in range(rng.randint(2, 6))]
        ineqs = tuple(Inequality(normal, rhs) for normal, rhs in raw
                      if not linalg.is_zero(normal))
        if not ineqs:
            continue
        p = HPolyhedron(n, ineqs)
        vp = round_trip_h_to_v(p)
        if not vp.vertices:
            assert p.is_empty
            empties += 1
            done += 1
            continue
        back = v_to_h(vp)
        assert lp_same_point_set(p, back)
        assert all(p.contains(v) for v in vp.vertices)
        done += 1
    assert empties > 0  # the sweep really exercised the empty branch


def test_remove_redundant_drops_sum():
    p = HPolyhedron(2, (Inequality([1, 0], 1), Inequality([0, 1], 1), Inequality([1, 1], 3)))
    assert remove_redundant(p).inequalities == (Inequality([1, 0], 1), Inequality([0, 1], 1))


def test_remove_redundant_keeps_tighter_bound():
    p = HPolyhedron(1, (Inequality([1], 1), Inequality([1], 2)))
    assert remove_redundant(p).inequalities == (Inequality([1], 1),)


def test_remove_redundant_example_one_standin():
    p = HPolyhedron(2, (Inequality([-1, 2], 7), Inequality([1, 2], 7),
                        Inequality([0, 1], F(7, 2))))
    out = remove_redundant(p)
    assert out.inequalities == (Inequality([-1, 2], 7), Inequality([1, 2], 7))
    # the dropped inequality is implied with multipliers (1/4, 1/4)
    imp = check_implication(out.inequalities, Inequality([0, 1], F(7, 2)))
    assert imp.implied and imp.multipliers == (F(1, 4), F(1, 4)) and imp.slack == 0


def test_remove_redundant_flags_empty_input():
    empty = HPolyhedron(1, (Inequality([1], -1), Inequality([-1], 0)))
    out = remove_redundant(empty)
    assert out.is_empty and out.inequalities == empty.inequalities


def test_remove_redundant_preserves_point_set_random():
    rng = random.Random(21)
    for _ in range(10):
        n = rng.randint(1, 3)
        ineqs = tuple(
            Inequality(V([rng.randint(-3, 3) for _ in range(n)]),
                       F(rng.randint(0, 4)))
            for _ in range(rng.randint(2, 7)))
        ineqs = tuple(q for q in ineqs if not q.is_trivial())
        if not ineqs:
            continue
        p = HPolyhedron(n, ineqs)
        out = remove_redundant(p)
        if p.is_empty:
            continue
        assert lp_same_point_set(p, out)
        # every kept inequality is non-redundant against the others
        for i, q in enumerate(out.inequalities):
            rest = out.inequalities[:i] + out.inequalities[i + 1:]
            if rest:
                assert not check_implication(rest, q).implied


@st.composite
def h_polyhedra(draw, min_n=1, n=None):
    """H-polyhedra in R^n (by default R^min_n..R^4) drawn to be
    full-dimensional (positive right-hand sides), flat (an equality pair),
    empty (a contradictory pair) or unbounded (rows through the origin),
    with rescaled duplicate rows and 0.x <= b rows mixed in, in random
    order."""
    n = n or draw(st.integers(min_n, 4))
    kind = draw(st.sampled_from(("full", "flat", "empty", "unbounded")))
    positive = st.builds(F, st.integers(1, 4), st.sampled_from((1, 2, 3)))

    def normal(nonzero=False):
        entries = st.lists(small, min_size=n, max_size=n)
        return tuple(draw(entries.filter(any) if nonzero else entries))

    rhs = {"full": positive, "unbounded": st.just(F(0))}.get(kind, small)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        a = normal()
        rows.append(Inequality(a, draw(positive) if linalg.is_zero(a) else draw(rhs)))
    if kind in ("flat", "empty"):
        q = Inequality(normal(nonzero=True), draw(small))
        gap = draw(positive) if kind == "empty" else 0
        a, b = normal_rhs(q)
        rows += [q, Inequality(linalg.neg(a), -b - gap)]
    for q in draw(st.lists(st.sampled_from(rows), max_size=2)) if rows else ():
        c = draw(positive)
        rows.append(Inequality(scale(c, q.stacked()[:-1]), c * q.stacked()[-1]))
    if draw(st.booleans()):
        rows.append(Inequality(linalg.zeros(n), draw(st.sampled_from((0, 1)))))
    return HPolyhedron(n, tuple(draw(st.permutations(rows))))


# the kept facet is the last of its two scalings
TWO_SCALINGS = HPolyhedron(2, (Inequality([2, 0], 2), Inequality([0, 1], 1),
                               Inequality([-1, 0], 0), Inequality([1, 0], 1),
                               Inequality([0, -1], 0)))
ZERO_NORMAL_ROW = HPolyhedron(2, SQUARE.inequalities[:2] + (Inequality([0, 0], 3),)
                              + SQUARE.inequalities[2:])
POINT_IN_R1 = HPolyhedron(1, (Inequality([3], 2), Inequality([-3], -2)))
# 0.x <= 0 is tight at every ray of the polar cone; counted as a face,
# it would contain the zero set of the facet x3 <= 1 and drop it
ZERO_ROW_FACE = HPolyhedron(3, (Inequality([0, 0, 0], 1), Inequality([0, 0, 1], 1),
                                Inequality([0, 0, 0], 0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h_polyhedra())
@example(TWO_SCALINGS)
@example(ZERO_NORMAL_ROW)
@example(POINT_IN_R1)
def test_dd_queries_match_lp_references(p):
    assert p.is_empty == lp_is_empty(p)
    assert dimension(p) == lp_dimension(p)
    assert [q.stacked() for q in remove_redundant(p).inequalities] == \
        [q.stacked() for q in lp_remove_redundant(p).inequalities]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h_polyhedra())
@example(TWO_SCALINGS)
@example(ZERO_NORMAL_ROW)
@example(ZERO_ROW_FACE)
def test_zero_set_facets_match_rank_facet_test(p):
    assert [q.stacked() for q in remove_redundant(p).inequalities] == \
        [q.stacked() for q in rank_remove_redundant(p).inequalities]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h_polyhedra())
@example(SQUARE)
@example(POINT_IN_R1)
@example(ZERO_ROW_FACE)
def test_every_polar_ray_is_extreme(p):
    # a ray of the polar cone {y : g.y <= 0} is extreme exactly when the
    # rows tight at it (p's rows and (0, ..., 0, 1)) have rank dim - 1
    # modulo the lines; a non-extreme ray, a sum of two others, is tight
    # at fewer rows
    lines, rays, _, _ = p._dd
    rows = [q.row for q in p.inequalities] + [polyhedron._unit_row(p.n + 1)]
    for ray in rays:
        tight = [V(r) for r in rows if linalg.int_dot(r, ray) == 0]
        assert fraction_rank(tight) == p.n + 1 - len(lines) - 1


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h_polyhedra())
@example(POINT_IN_R1)
@example(ZERO_ROW_FACE)
def test_cached_zero_sets_give_the_generator_rank_dimension(p):
    # one zero set per polar row (p's rows and (0, ..., 0, 1)), by row; the
    # rows tight at every ray are the implicit equalities that fix the dimension
    _, rays, zero_of, dim = p._dd
    assert dim == dimension(p) == generator_rank_dimension(p)
    rows = [q.row for q in p.inequalities] + [polyhedron._unit_row(p.n + 1)]
    assert zero_of == {r: _zero_set(r, rays) for r in rows}


@st.composite
def dd_row_systems(draw):
    """(rows, dim) for the DD kernel in dims 1-6: primitive int rows,
    often too few to span R^dim, so the polar keeps lines, with zero rows,
    repeated rows and negated rows mixed in."""
    dim = draw(st.integers(1, 6))
    entries = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    rows = [tuple(linalg.int_row(r)) for r in draw(st.lists(entries, max_size=7))]
    for _ in range(draw(st.integers(0, 3))) if rows else ():
        r = draw(st.sampled_from(rows))
        rows.append(draw(st.sampled_from((r, tuple(-a for a in r), (0,) * dim))))
    return tuple(draw(st.permutations(rows))), dim


def _polar_rows(p):
    """The rows of p's DD: p's rows and (0, ..., 0, 1)."""
    return (*(q.row for q in p.inequalities), polyhedron._unit_row(p.n + 1)), p.n + 1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(dd_row_systems(), h_polyhedra().map(_polar_rows)))
@example((((0, 0), (1, 0), (1, 0), (0, 1)), 2))
@example((((0, 1), (0, -1)), 2))
@example(_polar_rows(ZERO_ROW_FACE))
def test_dd_hands_over_the_zero_sets_it_tracks(args):
    # the kernel's own zero sets, read per row, are the rows tight at each
    # returned ray; a zero row is tight at every ray, a repeat like its first
    rows, dim = args
    dd = polyhedron._dd_zero_sets(rows, dim)
    assert (dd.lines, dd.rays) == polyhedron.dd_cone(rows, dim) and dd.dim is None
    assert dd.zero_of == {r: _zero_set(r, dd.rays) for r in rows}


def test_dd_queries_named_examples():
    assert [q.stacked() for q in remove_redundant(TWO_SCALINGS).inequalities] == \
        [V([0, 1, 1]), V([-1, 0, 0]), V([1, 0, 1]), V([0, -1, 0])]
    assert remove_redundant(ZERO_NORMAL_ROW).inequalities == SQUARE.inequalities
    assert remove_redundant(ZERO_ROW_FACE).inequalities == (Inequality([0, 0, 1], 1),)
    assert dimension(POINT_IN_R1) == 0 and not POINT_IN_R1.is_empty
    assert remove_redundant(POINT_IN_R1) == POINT_IN_R1


def test_dd_queries_solve_no_lp(monkeypatch):
    def no_lp(*args):
        raise AssertionError("LP solved")

    monkeypatch.setattr(polyhedron, "solve_lp", no_lp)
    # built fresh, so its DD is made under the patch
    p = HPolyhedron(TWO_SCALINGS.n, TWO_SCALINGS.inequalities)
    assert dimension(p) == 2 and not p.is_empty
    assert len(remove_redundant(p).inequalities) == 4


def test_check_implication_half_sum():
    imp = check_implication((Inequality([1, 2], 4), Inequality([1, 0], 2)), Inequality([1, 1], 3))
    assert imp.implied
    assert imp.multipliers == (F(1, 2), F(1, 2))
    assert imp.slack == 0


def test_check_implication_witness():
    imp = check_implication((Inequality([1], 1),), Inequality([1], 0))
    assert not imp.implied
    assert imp.witness is not None
    assert linalg.dot(V([1]), imp.witness) > 0
    assert linalg.dot(V([1]), imp.witness) <= 1


def test_check_implication_slack_only():
    imp = check_implication((Inequality([-1, 0], 0), Inequality([0, -1], 0)),
                            Inequality([-1, -1], 5))
    assert imp.implied and imp.slack == 5


def test_check_implication_unbounded_direction_witness():
    # x2 <= 0 fails over {x1 <= 0}: witness found along an improving ray
    imp = check_implication((Inequality([1, 0], 0),), Inequality([0, 1], 0))
    assert not imp.implied
    assert imp.witness[1] > 0 and imp.witness[0] <= 0


def test_check_implication_rejects_inconsistent_system():
    with pytest.raises(InconsistentSystemError) as err:
        check_implication((Inequality([1], -1), Inequality([-1], 0)), Inequality([1], 5))
    assert err.value.certificate is not None


@st.composite
def implication_cases(draw):
    """A system from h_polyhedra and a target that is either a nonnegative
    combination of its rows plus slack (implied when consistent), a row
    with its rhs lowered, or random."""
    p = draw(h_polyhedra())
    n, rows = p.n, p.inequalities
    kind = draw(st.sampled_from(("combination", "tightened", "random")))
    if kind == "combination" and rows:
        stacked = linalg.zeros(n) + (draw(st.sampled_from((0, 0, 1))),)
        for q in rows:
            stacked = add(stacked, scale(draw(st.integers(0, 2)), q.stacked()))
    elif kind == "tightened" and rows:
        q = draw(st.sampled_from(rows))
        *a, b = q.stacked()
        stacked = (*a, b - draw(st.sampled_from((F(1, 2), F(1)))))
    else:
        stacked = tuple(draw(st.lists(small, min_size=n + 1, max_size=n + 1)))
    normal, rhs = stacked[:-1], stacked[-1]
    if linalg.is_zero(normal):
        rhs = abs(rhs)
    return rows, Inequality(normal, rhs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(implication_cases())
@example(((Inequality([1, 2], 4), Inequality([1, 0], 2)), Inequality([1, 1], 3)))
@example(((Inequality([1], 1),), Inequality([1], 0)))
@example(((Inequality([1, 0], 0),), Inequality([0, 1], 0)))
@example(((Inequality([1], -1), Inequality([-1], 0)), Inequality([1], 5)))
@example(((), Inequality([0, 0], 0)))
def test_check_implication_matches_three_solve_reference(case):
    system, target = case
    try:
        want = three_solve_implication(system, target)
    except InconsistentSystemError as err:
        with pytest.raises(InconsistentSystemError) as got:
            check_implication(system, target)
        assert got.value.certificate == err.certificate
        return
    got = check_implication(system, target)
    assert got.implied == want.implied
    assert got.witness == want.witness
    if got.implied:
        assert all(y >= 0 for y in got.multipliers) and got.slack >= 0
        rebuilt = linalg.zeros(target.n) + (got.slack,)
        for y, q in zip(got.multipliers, system, strict=True):
            rebuilt = add(rebuilt, scale(y, q.stacked()))
        assert rebuilt == target.stacked()


def test_check_implication_solves_one_lp_unless_unbounded(monkeypatch):
    calls = []
    real = polyhedron.solve_lp

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(polyhedron, "solve_lp", counted)
    for system, target, solves in (
            # implied
            ((Inequality([1, 2], 4), Inequality([1, 0], 2)), Inequality([1, 1], 3), 1),
            # optimum violates
            ((Inequality([1], 1),), Inequality([1], 0), 1),
            # inconsistent
            ((Inequality([1], -1), Inequality([-1], 0)), Inequality([1], 5), 1),
            # unbounded
            ((Inequality([1, 0], 0),), Inequality([0, 1], 0), 2)):
        calls.clear()
        try:
            check_implication(system, target)
        except InconsistentSystemError:
            pass
        assert len(calls) == solves


def test_check_implication_multipliers_refer_to_the_inequalities_as_built():
    # the strip -x1 + 2 x2 <= 7, x1 + 2 x2 <= 7 with rows of scale 2 and 1/3,
    # and the CLI's target x2 <= 7/2, the row (0, 2, 7) of scale 1/2
    system = (Inequality([-2, 4], 14), Inequality([F(1, 3), F(2, 3)], F(7, 3)))
    assert [q.scale for q in system] == [2, F(1, 3)]
    got = check_implication(system, Inequality([0, 1], F(7, 2)))
    assert (got.multipliers, got.slack) == ((F(1, 8), F(3, 4)), 0)
    got = check_implication(system, Inequality([0, 1], 4))
    assert (got.multipliers, got.slack) == ((F(1, 8), F(3, 4)), F(1, 2))
    assert check_implication(system, Inequality([1, 1], 100)).witness == (195, -94)


@st.composite
def polyhedron_pairs(draw):
    """An h_polyhedra draw p and, in the same R^n, remove_redundant(p), p
    less one row, p with another draw's rows added, or another draw."""
    p = draw(h_polyhedra())
    kind = draw(st.sampled_from(("reduced", "dropped", "added", "independent")))
    rows = p.inequalities
    if kind == "reduced":
        return p, remove_redundant(p)
    if kind == "dropped" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        return p, HPolyhedron(p.n, rows[:i] + rows[i + 1:])
    other = draw(h_polyhedra(n=p.n))
    if kind == "added":
        return p, HPolyhedron(p.n, rows + other.inequalities[:draw(st.integers(1, 2))])
    return p, other


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(polyhedron_pairs())
@example((SQUARE, SQUARE))
@example((POINT_IN_R1, empty_hpolyhedron(1)))
@example((empty_hpolyhedron(2), HPolyhedron(2, (Inequality([1, 0], -1), Inequality([-1, 0], -1)))))
def test_containment_and_equality_match_lp_references(pair):
    p, q = pair
    assert is_subset(p, q) == lp_is_subset(p, q)
    assert is_subset(q, p) == lp_is_subset(q, p)
    assert lp_same_point_set(p, remove_redundant(p))


def test_is_subset_examples():
    assert is_subset(SQUARE, HPolyhedron(2, (Inequality([1, 1], 2),)))
    assert not is_subset(HPolyhedron(2, (Inequality([1, 1], 2),)), SQUARE)
    assert is_subset(empty_hpolyhedron(2), SQUARE)
    assert not is_subset(SQUARE, empty_hpolyhedron(2))
    # a line: x1 = 0 holds on it, x2 <= 5 does not
    line = HPolyhedron(2, (Inequality([1, 0], 0), Inequality([-1, 0], 0)))
    assert is_subset(line, HPolyhedron(2, (Inequality([1, 0], 0), Inequality([0, 0], 1))))
    assert not is_subset(line, HPolyhedron(2, (Inequality([0, 1], 5),)))
    with pytest.raises(ContractViolation):
        is_subset(SQUARE, POINT_IN_R1)

def test_dimension_examples():
    assert dimension(SQUARE) == 2
    assert dimension(HPolyhedron(2, (Inequality([1, 0], 0), Inequality([-1, 0], 0)))) == 1
    assert dimension(HPolyhedron(1, (Inequality([1], -1), Inequality([-1], 0)))) == -1
    assert dimension(HPolyhedron(3, ())) == 3


def test_facets_equal_irredundant_system_random():
    # for full-dimensional polyhedra the irredundant description is exactly
    # the facet list
    rng = random.Random(31)
    done = 0
    while done < 8:
        n = rng.randint(2, 4)
        ineqs = tuple(
            Inequality(V([rng.randint(-3, 3) for _ in range(n)]),
                       F(rng.randint(1, 5)))
            for _ in range(rng.randint(3, 8)))
        ineqs = tuple(q for q in ineqs if not q.is_trivial())
        if not ineqs:
            continue
        p = HPolyhedron(n, ineqs)
        if dimension(p) != n:
            continue
        reduced = remove_redundant(p)
        for q in reduced.inequalities:
            assert lp_is_facet_defining(p, q)
        for q in p.inequalities:
            if q not in reduced.inequalities:
                assert not lp_is_facet_defining(p, q)
        done += 1


# the segment from (0, 0, 0) to (1, 1, 0)
FLAT_SEGMENT = HPolyhedron(3, (Inequality([1, -1, 0], 0), Inequality([-1, 1, 0], 0),
                               ge([1, 0, 0], 0), Inequality([1, 0, 0], 1),
                               Inequality([0, 0, 1], 0), ge([0, 0, 1], 0)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(h_polyhedra())
@example(POINT_IN_R1)
@example(ZERO_ROW_FACE)
@example(FLAT_SEGMENT)
@example(empty_hpolyhedron(3))
def test_kept_dd_is_the_homogenization_dd_with_t_negated(p):
    # the polar of p's rows and (0, ..., 0, 1) is the homogenization
    # {(x, t) : a.x - b.t <= 0, t >= 0} with its last coordinate negated,
    # and dd_cone's choices commute with that map, ray for ray
    lines, rays = homogenization_dd(p)
    assert p._dd.lines == lines
    assert p._dd.rays == tuple(sorted((*r[:-1], -r[-1]) for r in rays))


def test_formatting_and_parsing():
    q = Inequality([1, 2], 4)
    assert format_le(q) == "1 2 <= 4"
    assert format_ge(q) == "-1 -2 >= -4"
    assert parse_inequality("x1 + 2 x2 <= 4", 2) == q
    assert parse_inequality("2 x2 + x1 <= 4", 2) == q
    assert parse_inequality("x1 + 2 x2 >= 3", 2) == ge([1, 2], 3)
    assert parse_inequality("1/2 x1 - x2 <= -1/3", 2) == Inequality([F(1, 2), -1], F(-1, 3))


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_inequality("x1 + x2", 2)
    with pytest.raises(ParseError):
        parse_inequality("x3 <= 1", 2)
    # digits are ASCII only: no other script's digits, no underscores
    for text in ("x\u0662 <= 1", "\u0662 x1 <= 1", "x1 <= \u0662", "1_0 x1 <= 1"):
        with pytest.raises(ParseError):
            parse_inequality(text, 2)


def test_parse_inequality_rejects_juxtaposed_terms_and_empty_left_side():
    with pytest.raises(ParseError, match="or '-' before 'x2'") as err:
        parse_inequality("x1 x2 <= 1", 2)
    assert err.value.column == 4
    with pytest.raises(ParseError, match="before '2 x2'"):
        parse_inequality("x1 2 x2 >= 1", 2)
    with pytest.raises(ParseError, match="left-hand side") as err:
        parse_inequality(" <= 1", 2)
    assert err.value.column == 1
    # the explicit zero left side, the pinned CLI form and the README form
    assert parse_inequality("0 <= 1", 2) == Inequality([0, 0], 1)
    assert parse_inequality("- 2 x1 + 1 x3 <= 4", 3) == Inequality([-2, 0, 1], 4)
    assert parse_inequality("x2 <= 7/2", 2) == Inequality([0, 1], F(7, 2))
    assert parse_inequality("x1+x2 >= 1", 2) == ge([1, 1], 1)


def test_sorted_unique_canonicalizes():
    out = sorted_unique([Inequality([2, 4], 8), Inequality([1, 2], 4), Inequality([0, 1], 1)])
    assert out == (Inequality([0, 1], 1), Inequality([1, 2], 4))
