"""Contract errors: each call below breaks a documented precondition and
must raise ContractViolation with exactly its message."""

import re

import pytest

from closurelab.aggregation import closure_approx, multiplier_rows, sample_multipliers
from closurelab.cone import GeneratedCone, is_valid_for_closure
from closurelab.covering import CoveringInstance, MinimalPointSet
from closurelab.errors import ContractViolation
from closurelab.lp import solve_lp
from closurelab.polyhedron import HPolyhedron, Inequality, check_implication

COVERING = CoveringInstance(([1, 2],), (3,))
SQUARE = GeneratedCone(((1, 0, 1), (0, 1, 1), (-1, 0, 0), (0, -1, 0)))

CALLS = [
    (lambda: closure_approx(COVERING, 0, 4), "k and density must be at least 1"),
    (lambda: closure_approx(COVERING, 1, 0), "k and density must be at least 1"),
    (lambda: sample_multipliers(2, 0, 4), "k must be at least 1"),
    (lambda: multiplier_rows(0, 4), "m and density must be at least 1"),
    (lambda: GeneratedCone(()), "a generated cone needs at least one generator"),
    (lambda: GeneratedCone(((1,),)), "generators live in Q^(n+1) with n >= 1"),
    (lambda: is_valid_for_closure(SQUARE, Inequality([1, 0, 0], 1)),
     "inequality/cone dimension mismatch"),
    (lambda: CoveringInstance(((),), (0,)), "a covering instance needs at least one variable"),
    (lambda: MinimalPointSet(()).hull(), "the hull of an empty point set is undefined"),
    (lambda: HPolyhedron(2, (Inequality([1, 0, 0], 1),)),
     "inequality in R^3 inside polyhedron in R^2"),
    (lambda: check_implication((Inequality([1, 0], 1),), Inequality([1], 1)),
     "system/target dimension mismatch"),
    (lambda: solve_lp(((1,),), (1,), (1,), "mid"), "sense must be 'max' or 'min', got 'mid'"),
]


@pytest.mark.parametrize("call, message", CALLS, ids=[
    "closure_approx k", "closure_approx density", "sample_multipliers k",
    "multiplier_rows m", "cone without generators", "cone in Q^1",
    "validity dimension", "covering without variables", "hull of no points",
    "polyhedron dimension", "implication dimension", "lp sense"])
def test_contract_violations_carry_their_messages(call, message):
    with pytest.raises(ContractViolation, match=f"^{re.escape(message)}$"):
        call()
