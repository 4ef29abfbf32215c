"""Certified exact linear programming over the rationals.

The kernel is a dense two-phase simplex with Bland's anti-cycling rule,
run on integer rows (``linalg.int_row`` / ``linalg.combine``): tableau
row i is an integer vector whose rational value is ``row / row[basis[i]]``,
and the cost row is integer numerators over one positive denominator.
Both scales are positive, so Bland's sign tests and cross-multiplied
ratio comparisons pick the same pivots the rational tableau would.
Inputs, results and certificates are Fractions.  Every answer is exact
and carries a certificate that verifies by substitution: optimal duals
for an optimum, a Farkas vector for infeasibility, an improving ray for
unboundedness.  Free variables are handled by the classic x = x+ - x-
split.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .errors import ContractViolation, InternalInvariantError
from .linalg import (
    IntRow,
    Matrix,
    Vector,
    check_dim,
    combine,
    dot,
    int_row,
    is_zero,
    mat_vec,
    primitive,
    vec_mat,
    zeros,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LpStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"


@dataclass(frozen=True)
class LpResult:
    """Outcome of solve_lp.

    ``x`` is the exact optimal point when OPTIMAL.  ``certificate`` is
    the optimal dual y (y >= 0, yA = obj, yb = obj.x, where obj is c for
    max and -c for min) when OPTIMAL, a Farkas vector y (y >= 0, yA = 0,
    yb < 0) when INFEASIBLE and an improving recession ray when
    UNBOUNDED; the last two are primitive-scaled.
    """

    status: LpStatus
    x: Vector | None = None
    certificate: Vector | None = None
    objective: Fraction | None = None


@dataclass(frozen=True)
class ConeMembership:
    """Answer to 'is target in cone(generators)?' with an exact witness:
    nonnegative multipliers reproducing the target, or a separating h
    with h.g <= 0 for every generator and h.target > 0."""

    member: bool
    multipliers: Vector | None = None
    separator: Vector | None = None


def _pivot(tableau: list[IntRow], cost: list[int], basis: list[int],
           row: int, col: int) -> None:
    pr = tableau[row]
    if pr[col] < 0:
        tableau[row] = pr = [-a for a in pr]
    p = pr[col]
    for i, other in enumerate(tableau):
        if i != row and other[col]:
            tableau[i] = combine(p, other, other[col], pr)
    if cost[col]:
        cost[:] = combine(p, cost, cost[col], pr + [0])
    basis[row] = col


def _reduced_costs(tableau: list[IntRow], basis: list[int],
                   full_costs: Sequence[Fraction | int]) -> list[int]:
    """Reduced-cost numerators, the entry for minus the objective value,
    then their common positive denominator."""
    cost = int_row([*full_costs, 0, 1])
    for row, b in zip(tableau, basis):
        if cost[b]:
            cost = combine(row[b], cost, cost[b], row + [0])
    return cost


def _run_phase(tableau: list[IntRow], cost: list[int], basis: list[int],
               enterable: int) -> int | None:
    """Pivot to optimality; returns None, or the entering column on
    an unbounded direction.  Bland's rule: lowest-index entering column,
    lowest-index basic variable on ratio ties."""
    while True:
        col = next((j for j in range(enterable) if cost[j] < 0), None)
        if col is None:
            return None
        leave = None
        for i, row in enumerate(tableau):
            a = row[col]
            if a > 0:
                # row[-1] / a against the best ratio num / den, both den > 0
                if leave is None:
                    leave, num, den = i, row[-1], a
                    continue
                lhs, rhs = row[-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, num, den = i, row[-1], a
        if leave is None:
            return col
        _pivot(tableau, cost, basis, leave, col)


def _simplex_standard(rows: Matrix, rhs: Vector, costs: Vector):
    """min costs.z  s.t.  rows.z = rhs, z >= 0.

    Returns one of
      ("optimal", z, duals)      with duals u satisfying u.rows <= costs
      ("infeasible", u)          with u.rows <= 0 componentwise, u.rhs > 0
      ("unbounded", z, ray)      with rows.ray = 0, ray >= 0, costs.ray < 0
    """
    m = len(rows)
    n_cols = len(costs)
    signs = [(-1 if rhs[i] < 0 else 1) for i in range(m)]
    tableau = []
    for i in range(m):
        # c*(row, 1, rhs) for a c > 0, then the sign and the artificial column
        *scaled, c, b = int_row([*rows[i], 1, rhs[i]])
        s = signs[i]
        tableau.append([s * a for a in scaled] + [0] * i + [c]
                       + [0] * (m - i - 1) + [s * b])
    basis = [n_cols + i for i in range(m)]
    width = n_cols + m

    cost = _reduced_costs(tableau, basis, [0] * n_cols + [1] * m)
    unb = _run_phase(tableau, cost, basis, width)
    if unb is not None:
        raise InternalInvariantError("phase-1 objective is bounded below by zero")
    if cost[width] < 0:
        den = cost[-1]
        u = tuple(Fraction(signs[i] * (den - cost[n_cols + i]), den) for i in range(m))
        _check_farkas_standard(rows, rhs, u)
        return ("infeasible", u)

    # Feasible: drive zero-valued artificials out; all-zero rows are redundant.
    keep = []
    for i in range(m):
        if basis[i] >= n_cols:
            col = next((j for j in range(n_cols) if tableau[i][j]), None)
            if col is None:
                continue
            _pivot(tableau, cost, basis, i, col)
        keep.append(i)
    live_rows = [tableau[i] for i in keep]
    live_basis = [basis[i] for i in keep]

    cost = _reduced_costs(live_rows, live_basis, list(costs) + [0] * m)
    unb = _run_phase(live_rows, cost, live_basis, n_cols)

    z = list(zeros(n_cols))
    for row, b in zip(live_rows, live_basis):
        if b < n_cols:
            z[b] = Fraction(row[-1], row[b])
    z = tuple(z)

    if unb is not None:
        ray = list(zeros(n_cols))
        ray[unb] = _ONE
        for row, b in zip(live_rows, live_basis):
            if b < n_cols:
                ray[b] = Fraction(-row[unb], row[b])
        ray = tuple(ray)
        if dot(costs, ray) >= 0 or any(r != 0 for r in mat_vec(rows, ray)):
            raise InternalInvariantError("unbounded ray fails substitution check")
        return ("unbounded", z, ray)

    duals = [_ZERO] * m
    for i in keep:
        duals[i] = Fraction(-signs[i] * cost[n_cols + i], cost[-1])
    return ("optimal", z, tuple(duals))


def _check_farkas_standard(rows: Matrix, rhs: Vector, u: Vector) -> None:
    if dot(u, rhs) <= 0:
        raise InternalInvariantError("Farkas certificate has nonpositive value")
    for j in range(len(rows[0]) if rows else 0):
        if sum((u[i] * rows[i][j] for i in range(len(rows))), _ZERO) > 0:
            raise InternalInvariantError("Farkas certificate fails column check")


def solve_lp(a: Matrix, b: Vector, c: Vector, sense: str = "max") -> LpResult:
    """Exact optimum of (max|min) c.x subject to a.x <= b, x free."""
    if sense not in ("max", "min"):
        raise ContractViolation(f"sense must be 'max' or 'min', got {sense!r}")
    m = len(a)
    n = len(c)
    check_dim(b, m, "right-hand side")
    for row in a:
        check_dim(row, n, "constraint row")

    obj = c if sense == "max" else tuple(-q for q in c)
    # z = (x+, x-, slack); minimize -obj
    rows = tuple(
        tuple(a[i]) + tuple(-q for q in a[i])
        + tuple(_ONE if k == i else _ZERO for k in range(m))
        for i in range(m)
    )
    costs = tuple(-q for q in obj) + tuple(obj) + zeros(m)

    outcome = _simplex_standard(rows, b, costs)
    if outcome[0] == "infeasible":
        y = primitive(tuple(-q for q in outcome[1]))
        if any(q < 0 for q in y) or not is_zero(vec_mat(y, a)) or dot(y, b) >= 0:
            raise InternalInvariantError("infeasibility certificate fails substitution")
        return LpResult(LpStatus.INFEASIBLE, certificate=y)
    if outcome[0] == "unbounded":
        _, z, zray = outcome
        ray = primitive(tuple(zray[j] - zray[n + j] for j in range(n)))
        bad_dir = dot(c, ray) <= 0 if sense == "max" else dot(c, ray) >= 0
        if bad_dir or any(q > 0 for q in mat_vec(a, ray)):
            raise InternalInvariantError("unboundedness certificate fails substitution")
        return LpResult(LpStatus.UNBOUNDED, certificate=ray)
    _, z, duals = outcome
    x = tuple(z[j] - z[n + j] for j in range(n))
    y = tuple(-u for u in duals)
    # vec_mat of no rows is (), not the zero vector of length n
    ya = vec_mat(y, a) if a else zeros(n)
    if any(q < 0 for q in y) or ya != tuple(obj) or dot(y, b) != dot(obj, x):
        raise InternalInvariantError("optimality certificate fails substitution")
    return LpResult(LpStatus.OPTIMAL, x=x, certificate=y, objective=dot(c, x))


def cone_membership(generators: Sequence[Vector], target: Vector) -> ConeMembership:
    """Decide target in cone(generators), exactly, with a witness either way.

    cone(()) is {0}: the zero target is a member with no multipliers and
    anything else is separated by itself.
    """
    d = len(target)
    for g in generators:
        check_dim(g, d, "generator")
    if not generators:
        if is_zero(target):
            return ConeMembership(True, multipliers=())
        return ConeMembership(False, separator=primitive(target))

    rows = tuple(tuple(g[i] for g in generators) for i in range(d))
    outcome = _simplex_standard(rows, target, zeros(len(generators)))
    if outcome[0] == "optimal":
        mult = outcome[1]
        recombined = tuple(
            sum((mult[j] * generators[j][i] for j in range(len(generators))), _ZERO)
            for i in range(d)
        )
        if recombined != tuple(target):
            raise InternalInvariantError("membership multipliers fail to reproduce target")
        return ConeMembership(True, multipliers=mult)
    h = primitive(outcome[1])
    if dot(h, target) <= 0 or any(dot(h, g) > 0 for g in generators):
        raise InternalInvariantError("separating vector fails substitution")
    return ConeMembership(False, separator=h)
