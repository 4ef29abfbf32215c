"""Exact LP kernel: spec'd examples, certificates, and duality audits."""

import random
from fractions import Fraction as F

import pytest

from closurelab import linalg
from closurelab.errors import ContractViolation
from closurelab.lp import LpStatus, cone_membership, solve_lp
from closurelab.verify import dual_of_max, random_lp

V = linalg.vector


def test_single_variable_box():
    res = solve_lp((V([1]), V([-1])), V([2, 0]), V([1]), "max")
    assert res.status is LpStatus.OPTIMAL
    assert res.x == V([2])
    assert res.objective == 2


def test_unbounded_half_line():
    res = solve_lp((V([-1]),), V([0]), V([1]), "max")
    assert res.status is LpStatus.UNBOUNDED
    assert res.certificate == V([1])


def test_empty_interval_farkas():
    res = solve_lp((V([1]), V([-1])), V([-1, 0]), V([0]), "max")
    assert res.status is LpStatus.INFEASIBLE
    assert res.certificate == V([1, 1])  # 1*(x1 <= -1) + 1*(-x1 <= 0) gives 0 <= -1


def test_min_sense():
    res = solve_lp((V([-1]),), V([-3]), V([1]), "min")
    assert res.status is LpStatus.OPTIMAL
    assert res.x == V([3])
    assert res.objective == 3


def test_dimension_mismatch_rejected():
    with pytest.raises(ContractViolation):
        solve_lp((V([1, 2]),), V([1]), V([1]), "max")
    with pytest.raises(ContractViolation):
        solve_lp((V([1]),), V([1, 2]), V([1]), "max")


def test_fractional_optimum_is_exact():
    # max x1 + x2 s.t. 2x1 + x2 <= 1, x1 + 3x2 <= 1
    res = solve_lp((V([2, 1]), V([1, 3])), V([1, 1]), V([1, 1]), "max")
    assert res.status is LpStatus.OPTIMAL
    assert res.x == (F(2, 5), F(1, 5))
    assert res.objective == F(3, 5)


def test_degenerate_cycling_instance_terminates():
    # Beale's classic degenerate program; naive pivoting cycles on it
    a = (
        V([F(1, 4), -60, F(-1, 25), 9]),
        V([F(1, 2), -90, F(-1, 50), 3]),
        V([0, 0, 1, 0]),
        V([-1, 0, 0, 0]),
        V([0, -1, 0, 0]),
        V([0, 0, -1, 0]),
        V([0, 0, 0, -1]),
    )
    b = V([0, 0, 1, 0, 0, 0, 0])
    c = V([F(-3, 4), 150, F(-1, 50), 6])
    res = solve_lp(a, b, c, "min")
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == F(-1, 20)


def test_cone_membership_coordinate_cone():
    res = cone_membership([V([1, 0]), V([0, 1])], V([2, 3]))
    assert res.member and res.multipliers == V([2, 3])


def test_cone_membership_separator():
    res = cone_membership([V([1, 0]), V([0, 1])], V([-1, 0]))
    assert not res.member
    h = res.separator
    assert linalg.dot(h, V([-1, 0])) > 0
    assert linalg.dot(h, V([1, 0])) <= 0 and linalg.dot(h, V([0, 1])) <= 0


def test_cone_membership_validity_over_orthant():
    res = cone_membership([V([-1, 0, 0]), V([0, -1, 0]), V([0, 0, 1])], V([-1, -1, 5]))
    assert res.member and res.multipliers == V([1, 1, 5])


def test_cone_membership_empty_generator_list():
    assert cone_membership([], V([0, 0])).member
    res = cone_membership([], V([1, 2]))
    assert not res.member and linalg.dot(res.separator, V([1, 2])) > 0


def test_membership_round_trip_random():
    rng = random.Random(3)
    for _ in range(40):
        d = rng.randint(1, 4)
        gens = [V([rng.randint(-4, 4) for _ in range(d)]) for _ in range(rng.randint(1, 5))]
        gens = [g for g in gens if not linalg.is_zero(g)] or [V([1] + [0] * (d - 1))]
        target = V([rng.randint(-6, 6) for _ in range(d)])
        res = cone_membership(gens, target)
        if res.member:
            recombined = linalg.zeros(d)
            for mu, g in zip(res.multipliers, gens):
                recombined = linalg.add(recombined, linalg.scale(mu, g))
            assert recombined == target
            assert all(mu >= 0 for mu in res.multipliers)
        else:
            h = res.separator
            assert linalg.dot(h, target) > 0
            assert all(linalg.dot(h, g) <= 0 for g in gens)


def test_duality_audit_random():
    rng = random.Random(5)
    for _ in range(30):
        a, b, c = random_lp(rng)
        res = solve_lp(a, b, c, "max")
        if res.status is LpStatus.OPTIMAL:
            da, db, dc = dual_of_max(a, b, c)
            dual = solve_lp(da, db, dc, "min")
            assert dual.status is LpStatus.OPTIMAL
            assert dual.objective == res.objective


def test_certificate_audit_random():
    rng = random.Random(6)
    seen = {LpStatus.OPTIMAL: 0, LpStatus.INFEASIBLE: 0, LpStatus.UNBOUNDED: 0}
    for _ in range(60):
        a, b, c = random_lp(rng)
        res = solve_lp(a, b, c, "max")
        seen[res.status] += 1
        if res.status is LpStatus.INFEASIBLE:
            y = res.certificate
            assert all(q >= 0 for q in y)
            assert linalg.is_zero(linalg.vec_mat(y, a))
            assert linalg.dot(y, b) < 0
        elif res.status is LpStatus.UNBOUNDED:
            r = res.certificate
            assert linalg.dot(c, r) > 0
            assert all(linalg.dot(row, r) <= 0 for row in a)
        else:
            assert_optimal_duals(a, b, c, res)
    # the generator hits all three statuses at this seed
    assert all(count > 0 for count in seen.values())


def assert_optimal_duals(a, b, obj, res):
    """y >= 0, yA = obj and y.b = obj.x, with obj = c for max, -c for min."""
    y = res.certificate
    assert len(y) == len(a)
    assert all(q >= 0 for q in y)
    assert (linalg.vec_mat(y, a) if a else linalg.zeros(len(obj))) == obj
    assert linalg.dot(y, b) == linalg.dot(obj, res.x)


def test_optimal_duals_min_sense_and_no_rows():
    # min x1 + x2 over x1 >= 1, x2 >= 2, x1 + x2 >= 1 (the last row is slack)
    a = (V([-1, 0]), V([0, -1]), V([-1, -1]))
    res = solve_lp(a, V([-1, -2, -1]), V([1, 1]), "min")
    assert res.status is LpStatus.OPTIMAL and res.objective == 3
    assert res.certificate == V([1, 1, 0])
    assert_optimal_duals(a, V([-1, -2, -1]), V([-1, -1]), res)

    res = solve_lp((), (), V([0, 0]), "max")
    assert res.status is LpStatus.OPTIMAL
    assert res.x == V([0, 0]) and res.certificate == () and res.objective == 0
