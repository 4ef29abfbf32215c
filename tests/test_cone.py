"""Generated cones: extreme rays, pointedness, closure, validity, FII."""

from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import cone as cone_module, linalg, polyhedron
from closurelab.cone import (
    GeneratedCone,
    certified_extreme_rows,
    check_theorem1,
    closure_of,
    extreme_rays,
    fii_check,
    is_pointed,
    is_valid_for_closure,
)
from closurelab.errors import (
    ClosureLabError,
    ContractViolation,
    EmptyClosureError,
    InvalidInequalityError,
    NotFullDimensionalError,
    NotPointedError,
)
from closurelab.io import parse_instance
from closurelab.lp import cone_membership, solve_lp
from closurelab.polyhedron import Inequality, dimension
from closurelab.verify import random_line_cones, random_pointed_cones

from test_cone_cli_pinned import HAND_WRITTEN
from oracles import (add, fii_others, lp_extreme_rays, lp_is_facet_defining, lp_same_point_set,
                     scale, unique_generators)

V = linalg.vector
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)
INSTANCES = Path(__file__).resolve().parent.parent / "instances"

ORTHANT_CONE = GeneratedCone((V([-1, 0, 0]), V([0, -1, 0]), V([0, 0, 1])))
SQUARE_CONE = GeneratedCone((V([1, 0, 1]), V([0, 1, 1]),
                             V([-1, 0, 0]), V([0, -1, 0]), V([0, 0, 1])))


def test_generators_are_canonicalized():
    k = GeneratedCone((V([2, 4]), V([0, 3])))
    assert k.int_generators == ((1, 2), (0, 1))


def test_generator_contract_is_kept_by_the_int_fast_path():
    # all-int generators skip linalg.vector; anything else still passes
    # through it, so a float is refused with the same error as before
    for gens in (((1, 0.5, 1),), ((1, 0, 1), (1.0, 1, 1))):
        with pytest.raises(ContractViolation, match="cannot interpret"):
            GeneratedCone(gens)
    k = GeneratedCone((("1/2", "1", "3/2"), (F(2, 3), F(0), F(4, 3)), (2, 4, 6)))
    assert k.int_generators == ((1, 2, 3), (1, 0, 2), (1, 2, 3))
    assert k._rows == ((1, 2, 3), (1, 0, 2))
    assert k == GeneratedCone(((1, 2, 3), (1, 0, 2), (1, 2, 3)))


def test_zero_generator_rejected():
    with pytest.raises(ContractViolation):
        GeneratedCone((V([0, 0]),))


def test_extreme_rays_drops_sum():
    rays = extreme_rays(GeneratedCone((V([1, 0]), V([0, 1]), V([1, 1]))))
    assert rays == (V([0, 1]), V([1, 0]))


def test_extreme_rays_identity_case():
    rays = extreme_rays(GeneratedCone((V([1, 0]), V([0, 1]))))
    assert rays == (V([0, 1]), V([1, 0]))


def test_extreme_rays_interior_generator():
    k = GeneratedCone((V([2, 1]), V([1, 2]), V([1, 1])))
    assert extreme_rays(k) == (V([1, 2]), V([2, 1]))
    # (1,1) really is 1/3 (2,1) + 1/3 (1,2)
    member = cone_membership((V([2, 1]), V([1, 2])), V([1, 1]))
    assert member.member and member.multipliers == (F(1, 3), F(1, 3))


def test_extreme_rays_requires_pointed():
    with pytest.raises(NotPointedError) as err:
        extreme_rays(GeneratedCone((V([1, 0]), V([-1, 0]), V([0, 1]))))
    v = err.value.line_witness
    assert cone_membership((V([1, 0]), V([-1, 0]), V([0, 1])), linalg.neg(v)).member


def test_is_pointed_with_support():
    res = is_pointed(GeneratedCone((V([1, 0]), V([1, 1]))))
    assert res.pointed
    assert all(linalg.dot(res.support, g) > 0 for g in (V([1, 0]), V([1, 1])))


def test_is_pointed_detects_opposite_pair():
    res = is_pointed(GeneratedCone((V([1, 0]), V([-1, 0]), V([0, 1]))))
    assert not res.pointed
    assert res.line_witness == V([1, 0])


def test_is_pointed_detects_hidden_line():
    # (1,-1) and (-1,1) sum to zero, so the cone is the half-plane u+v >= 0
    gens = (V([1, 1]), V([1, -1]), V([-1, 1]))
    res = is_pointed(GeneratedCone(gens))
    assert not res.pointed
    v = res.line_witness
    assert cone_membership(gens, v).member and cone_membership(gens, linalg.neg(v)).member


def test_closure_orthant():
    closure = closure_of(ORTHANT_CONE)
    assert set(closure.inequalities) == {Inequality([-1, 0], 0), Inequality([0, -1], 0)}


def test_closure_slab():
    closure = closure_of(GeneratedCone((V([1, 0, 1]), V([-1, 0, 0]), V([0, 0, 1]))))
    assert set(closure.inequalities) == {Inequality([1, 0], 1), Inequality([-1, 0], 0)}


def test_closure_direct_reading():
    closure = closure_of(GeneratedCone((V([1, 1, 2]), V([1, 2, 3]), V([0, 0, 1]))))
    assert set(closure.inequalities) == {Inequality([1, 1], 2), Inequality([1, 2], 3)}


def test_closure_adds_unit_last_silently():
    k = GeneratedCone((V([1, 1, 2]),))
    assert not k.has_unit_last
    closure = closure_of(k)
    assert set(closure.inequalities) == {Inequality([1, 1], 2)}


def test_closure_can_be_empty():
    closure = closure_of(GeneratedCone((V([0, 0, -1]), V([0, 0, 1]))))
    assert closure.is_empty


def test_validity_over_orthant():
    assert is_valid_for_closure(ORTHANT_CONE, Inequality([-1, -1], 5)).valid
    res = is_valid_for_closure(ORTHANT_CONE, Inequality([1, 0], 1))
    assert not res.valid
    assert res.witness == V([2, 0])


def test_validity_multipliers_sum_generators():
    k = GeneratedCone((V([1, 1, 2]), V([1, 2, 3]), V([0, 0, 1])))
    res = is_valid_for_closure(k, Inequality([2, 3], 5))
    assert res.valid and res.multipliers == (F(1), F(1), F(0))


def test_validity_requires_nonempty_closure():
    with pytest.raises(EmptyClosureError):
        is_valid_for_closure(GeneratedCone((V([0, 0, -1]),)), Inequality([1, 0], 1))


def test_cone_queries_share_one_double_description(monkeypatch):
    # the cone keeps its closure system and the system keeps its DD, so the
    # queries after the first read that DD instead of making their own
    calls = []
    real = polyhedron.dd_cone

    def counted(rows, dim):
        calls.append(rows)
        return real(rows, dim)

    monkeypatch.setattr(polyhedron, "dd_cone", counted)
    monkeypatch.setattr(cone_module, "dd_cone", counted)
    k = GeneratedCone(SQUARE_CONE.int_generators + ((1, 1, 3),))
    assert k.has_unit_last and check_theorem1(k).passed
    assert len(closure_of(k).inequalities) == 4
    assert len(extreme_rays(k)) == 4
    assert is_valid_for_closure(k, Inequality([1, 1], 2)).valid
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["no_unit_last", "no_system"])
def test_extreme_rays_off_the_closure_system_take_one_dd_of_their_rows(name, monkeypatch):
    # the generators are not the closure system's rows and unit-last, so
    # the closure system's DD is not built: one DD of the generators alone
    calls = []
    real = polyhedron.dd_cone

    def counted(rows, dim):
        calls.append(tuple(rows))
        return real(rows, dim)

    monkeypatch.setattr(polyhedron, "dd_cone", counted)
    monkeypatch.setattr(cone_module, "dd_cone", counted)
    k = GeneratedCone(HAND_WRITTEN[name])
    extreme_rays(k)
    assert calls == [k._rows]


def test_theorem1_orthant():
    assert check_theorem1(ORTHANT_CONE).passed


def test_theorem1_redundant_generator_excluded():
    k = GeneratedCone(ORTHANT_CONE.int_generators + ((-1, -1, 0),))
    rep = check_theorem1(k)
    assert rep.passed
    assert (-1, -1, 0) not in rep.extreme_rows


def test_theorem1_requires_full_dimensional_closure():
    flat = GeneratedCone((V([1, 0, 0]), V([-1, 0, 0]), V([0, 0, 1])))
    with pytest.raises(NotFullDimensionalError):
        check_theorem1(flat)


def test_theorem1_random_cones():
    for cone in random_pointed_cones(17, count=12):
        rep = check_theorem1(cone)
        assert rep.passed
        # every drawn cone holds (0, ..., 0, 1), so no generator is added
        assert set(rep.extreme_rows) <= set(cone.int_generators)


def test_pointedness_matches_full_dimension_random():
    for cone in random_pointed_cones(23, count=10):
        assert is_pointed(cone).pointed == (dimension(closure_of(cone)) == cone.n)
    for cone in random_line_cones(23, count=8):
        assert not is_pointed(cone).pointed
        assert dimension(closure_of(cone)) < cone.n


def test_fii_square_facet():
    assert fii_check(SQUARE_CONE, Inequality([1, 0], 1)).is_fii


def test_fii_square_corner_cut_is_redundant():
    q = Inequality([1, 1], 2)
    res = fii_check(SQUARE_CONE, q)
    assert not res.is_fii
    combo = linalg.zeros(3)
    for mu, g in zip(res.multipliers, fii_others(SQUARE_CONE, q), strict=True):
        combo = add(combo, scale(mu, g))
    assert combo == V([1, 1, 2])


def test_fii_example_one_standin():
    k = GeneratedCone((V([-1, 2, 7]), V([1, 2, 7]), V([0, 0, 1])))
    res = fii_check(k, Inequality([0, 1], F(7, 2)))
    assert not res.is_fii
    assert res.multipliers == (F(1, 4), F(1, 4), F(0))


STRIP_CONE = GeneratedCone((V([-1, 2, 7]), V([1, 2, 7]), V([0, 0, 1])))


@pytest.mark.parametrize("cone, q, want, lps", [
    (STRIP_CONE, Inequality([0, 1], F(7, 2)), (F(1, 4), F(1, 4), F(0)), 1),
    (STRIP_CONE, Inequality([0, 1], 7), (F(1, 4), F(1, 4), F(7, 2)), 1),
    (SQUARE_CONE, Inequality([1, 1], 2), (F(1), F(1), F(0), F(0), F(0)), 1),
    # q is a generator: others drops it, so the second LP is a new question
    (SQUARE_CONE, Inequality([1, 0], 1), None, 2),
], ids=["strip x2<=7/2", "strip x2<=7", "square x1+x2<=2", "square x1<=1"])
def test_fii_reuses_the_validity_lp_when_q_is_no_generator(monkeypatch, cone, q, want, lps):
    calls = []

    def counting(generators, target):
        calls.append(target)
        return cone_membership(generators, target)

    monkeypatch.setattr(cone_module, "cone_membership", counting)
    res = fii_check(cone, q)
    assert len(calls) == lps
    assert res.is_fii == (want is None) and res.multipliers == want
    if want is not None:
        combo = linalg.zeros(cone.dim)
        for mu, g in zip(want, fii_others(cone, q), strict=True):
            combo = add(combo, scale(mu, g))
        assert combo == q.stacked()


def test_fii_rejects_invalid_inequality():
    with pytest.raises(InvalidInequalityError):
        fii_check(ORTHANT_CONE, Inequality([1, 0], 1))


def test_fii_requires_full_dimensional_closure():
    flat = GeneratedCone((V([1, 0, 0]), V([-1, 0, 0]), V([0, 0, 1])))
    with pytest.raises(NotFullDimensionalError):
        fii_check(flat, Inequality([1, 0], 0))


def test_fii_matches_facet_defining_on_generators():
    for cone in random_pointed_cones(29, count=10):
        closure = closure_of(cone)
        for g in unique_generators(cone):
            normal, rhs = g[:-1], g[-1]
            if linalg.is_zero(normal):
                continue
            q = Inequality(normal, rhs)
            assert fii_check(cone, q).is_fii == lp_is_facet_defining(closure, q)


def test_extreme_ray_soundness_random():
    for cone in random_pointed_cones(37, count=8):
        rays = extreme_rays(cone)
        gens = unique_generators(cone)
        for g in gens:
            others = tuple(x for x in gens if x != g)
            member = cone_membership(others, g).member
            assert member == (g not in rays)


def test_rebuilt_closure_equals_original_random():
    for cone in random_pointed_cones(43, count=8):
        rays = extreme_rays(cone)
        rebuilt = GeneratedCone(rays + (linalg.unit(cone.dim, cone.n),))
        assert lp_same_point_set(closure_of(cone), closure_of(rebuilt))


def test_extreme_rays_order_independent():
    for cone in random_pointed_cones(51, count=6):
        reference = extreme_rays(cone)
        shuffled = GeneratedCone(tuple(reversed(cone.int_generators)))
        assert extreme_rays(shuffled) == reference


def test_scaled_duplicate_generators_collapse():
    k = GeneratedCone((V([1, 0]), V([3, 0]), V([0, 2]), V([0, 1])))
    assert unique_generators(k) == (V([1, 0]), V([0, 1]))
    assert extreme_rays(k) == (V([0, 1]), V([1, 0]))


def _ints(v):
    return type(v) is tuple and all(type(a) is int for a in v)


def _fractions(v):
    return type(v) is tuple and all(type(a) is F for a in v)


def test_cone_layer_hands_the_lp_ints_and_returns_fractions(monkeypatch):
    columns, lp_rows = [], []

    def recording_membership(generators, target):
        columns.extend(generators)
        return cone_membership(generators, target)

    def recording_lp(a, b, c, sense="max"):
        lp_rows.extend(a)
        return solve_lp(a, b, c, sense)

    monkeypatch.setattr(cone_module, "cone_membership", recording_membership)
    monkeypatch.setattr(cone_module, "solve_lp", recording_lp)
    vectors = []  # every vector a result hands out
    for name, fii, not_fii, invalid in (
            ("strip_cone.txt", Inequality([-1, 2], 7), Inequality([0, 1], F(7, 2)),
             Inequality([0, 1], 1)),
            ("unit_square_cone.txt", Inequality([1, 0], 1), Inequality([1, 1], 2),
             Inequality([1, 1], 1))):
        k = parse_instance((INSTANCES / name).read_text()).payload
        # extreme rays are stored int rows, as Theorem1Report.extreme_rows
        assert extreme_rays(k) and all(map(_ints, extreme_rays(k)))
        assert all(map(_ints, k.int_generators))
        pointed = is_pointed(k)
        assert pointed.pointed
        vectors.append(pointed.support)
        vectors += [q.stacked() for q in closure_of(k).inequalities]
        report = check_theorem1(k)
        assert report.passed
        assert all(map(_ints, report.extreme_rows))
        yes, no = fii_check(k, fii), fii_check(k, not_fii)
        assert yes.is_fii and not no.is_fii
        vectors.append(no.multipliers)
        valid, bad = is_valid_for_closure(k, not_fii), is_valid_for_closure(k, invalid)
        assert valid.valid and not bad.valid
        vectors += [valid.multipliers, bad.witness]
        with pytest.raises(InvalidInequalityError) as err:
            fii_check(k, invalid)
        vectors.append(err.value.witness)
    line = GeneratedCone((V([1, 0, 0]), V([-1, 0, 0]), V([0, 0, 1])))
    pointed = is_pointed(line)
    assert not pointed.pointed
    vectors.append(pointed.line_witness)
    with pytest.raises(NotPointedError) as err:
        extreme_rays(line)
    vectors.append(err.value.line_witness)
    vectors += [q.stacked() for q in closure_of(line).inequalities]
    with pytest.raises(NotFullDimensionalError):
        check_theorem1(line)
    with pytest.raises(NotFullDimensionalError):
        fii_check(line, Inequality([1, 0], 1))
    assert columns and lp_rows
    assert all(map(_ints, columns)) and all(map(_ints, lp_rows))
    assert vectors and all(map(_fractions, vectors))


@st.composite
def cones_built_twice(draw):
    """A cone from integer generators, and the same cone from each
    generator times p/q, some of them repeated."""
    n = draw(st.sampled_from((2, 3)))
    generator = st.tuples(*[st.integers(-3, 3)] * n, st.integers(0, 3)).filter(any)
    gens = draw(st.lists(generator, min_size=2, max_size=6))
    scale = st.builds(F, st.integers(1, 5), st.integers(1, 5))
    scaled = []
    for g in gens:
        for c in draw(st.lists(scale, min_size=1, max_size=2)):
            scaled.append(tuple(c * a for a in g))
    return GeneratedCone(tuple(gens)), GeneratedCone(tuple(scaled))


def _outcome(f, *args):
    try:
        return f(*args)
    except ClosureLabError as e:
        return type(e), str(e), getattr(e, "line_witness", None)


@PROPERTY
@given(cones_built_twice())
@example((GeneratedCone(((1, 0, 0), (-1, 0, 0), (0, 0, 1))),
          GeneratedCone(((3, 0, 0), (-1, 0, 0), (F(-1, 2), 0, 0), (0, 0, 5)))))
def test_rescaled_and_repeated_generators_give_the_same_cone(cones):
    k, scaled = cones
    assert unique_generators(scaled) == unique_generators(k)
    assert k._rows == tuple(tuple(linalg.int_row(g)) for g in unique_generators(k))
    for query in (extreme_rays, is_pointed, closure_of, check_theorem1):
        assert _outcome(query, scaled) == _outcome(query, k), query.__name__
    for g in unique_generators(k):
        q = Inequality(g[:-1], g[-1])
        assert _outcome(fii_check, scaled, q) == _outcome(fii_check, k, q)


@st.composite
def small_cones(draw):
    """Cones in Q^3..Q^6 of 1-8 generators with entries -2..2, with or
    without the unit-last generator; many contain a line."""
    n = draw(st.integers(2, 5))
    generator = st.tuples(*[st.integers(-2, 2)] * (n + 1)).filter(any)
    gens = draw(st.lists(generator, min_size=1, max_size=8))
    if draw(st.booleans()):
        gens.append((0,) * n + (1,))
    return GeneratedCone(tuple(gens))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_cones())
@example(GeneratedCone(((1, 0, 0), (-1, 0, 0), (0, 0, 1))))  # a line, unit-last
@example(GeneratedCone(((1, 0, 0), (-1, 0, 0), (0, 1, 0))))  # a line, no unit-last
@example(GeneratedCone(((0, 0, -1), (0, 0, 1), (1, 0, 0))))  # unit-last, no closure rows
@example(GeneratedCone(((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))))  # all of Q^3
@example(GeneratedCone(((1, 2, 0),)))  # one generator: a polar with lines
@example(GeneratedCone(((0, 0, 1),)))  # unit-last alone: no closure row
def test_extreme_rays_match_the_membership_lp_reference(k):
    assert _outcome(extreme_rays, k) == _outcome(lp_extreme_rays, k)


def test_certified_extreme_rows_by_membership_lps():
    # (1, 1, 2) is the sum of (1, 0, 1) and (0, 1, 1); unit-last is supplied
    k = GeneratedCone(((1, 0, 1), (0, 1, 1), (1, 1, 2)))
    assert certified_extreme_rows(k) == ((0, 0, 1), (0, 1, 1), (1, 0, 1))
    assert certified_extreme_rows(k) == check_theorem1(k).extreme_rows
    # the drawn cones hold unit-last, so both DD readers give the same rows
    for k in random_pointed_cones(4, 10):
        assert certified_extreme_rows(k) == check_theorem1(k).extreme_rows == extreme_rays(k)
