"""Certified exact linear programming over the rationals.

The kernel is a dense two-phase simplex with Bland's anti-cycling rule,
run on integer rows (``linalg.int_row`` / ``linalg.combine``): tableau
row i is an integer vector whose rational value is ``row / row[basis[i]]``,
and the cost row is integer numerators over one positive denominator.
Both scales are positive, so Bland's sign tests and cross-multiplied
ratio comparisons pick the same pivots the rational tableau would.
Free variables are handled by the classic x = x+ - x- split.  The
simplex gets positive integer scalings of the caller's data (ints or
Fractions): ``solve_lp`` the primitive integer row of each (a_i, -a_i,
e_i, 1, b_i), its slack and phase-1 artificial scaled with it, and
``cone_membership`` each generator and the target times the lcm of their
own denominators.  Results and certificates are Fractions.

Every answer is exact and carries a certificate.  The public function
that returns it, ``solve_lp`` or ``cone_membership``, checks it once and
in full by exact integer substitution against those scalings, which
makes the same claim as on the caller's data (InternalInvariantError if
it fails).  ``_simplex_standard`` is a plain solver and checks none.
``LpResult`` and ``ConeMembership`` say what each check covers.
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
    clear_denominators,
    combine,
    dot,
    int_dot,
    int_row,
    is_zero,
    primitive,
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
    """Outcome of solve_lp, checked by solve_lp before it is returned.

    ``x`` is the exact optimal point when OPTIMAL.  ``certificate`` is
    the optimal dual y when OPTIMAL, a Farkas vector y when INFEASIBLE
    and an improving recession ray r when UNBOUNDED; the last two are
    primitive-scaled.  With obj = c for max and -c for min, the check
    covers the whole claim of each status, in ints on the rows w_i (a_i,
    b_i) the simplex gets, each weighted y_i / w_i:

      OPTIMAL     a.x <= b, y >= 0, yA = obj and y.b = obj.x
      INFEASIBLE  y >= 0, yA = 0 and y.b < 0
      UNBOUNDED   a.r <= 0 and obj.r > 0
    """

    status: LpStatus
    x: Vector | None = None
    certificate: Vector | None = None
    objective: Fraction | None = None


@dataclass(frozen=True)
class ConeMembership:
    """Answer to 'is target in cone(generators)?' with an exact witness,
    checked by cone_membership before it is returned: multipliers that
    are nonnegative and reproduce the target, or a separating h with
    h.g <= 0 for every generator and h.target > 0.  Both checks are exact
    integer substitutions against generator j and the target scaled by
    the lcms L_j and L_t of their denominators; the multipliers checked
    there are the returned ones times L_t / L_j, so each check makes the
    same claim as on the caller's data."""

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


def _simplex_standard(rows: Sequence[Sequence[int]], costs: Sequence[Fraction | int]):
    """min costs.z  s.t.  r.z = h for every integer row (r, w, h), z >= 0.

    w > 0 is the coefficient of the row's phase-1 artificial: the row is
    the rational row (r, 1, h) / w, which the duals refer to.  Returns one of
      ("optimal", z, duals)      with sum_i duals_i r_i / w_i <= costs
      ("infeasible", u)          with sum_i u_i r_i / w_i <= 0, sum_i u_i h_i / w_i > 0
      ("unbounded", z, ray)      with r.ray = 0, ray >= 0, costs.ray < 0
    Only the phase-1 invariant is checked here; callers check the rest.
    """
    m = len(rows)
    n_cols = len(costs)
    signs = [(-1 if row[-1] < 0 else 1) for row in rows]
    tableau = []
    for i, (*r, w, h) in enumerate(rows):
        s = signs[i]
        tableau.append([s * a for a in r] + [0] * i + [w] + [0] * (m - i - 1) + [s * h])
    basis = [n_cols + i for i in range(m)]
    width = n_cols + m

    cost = _reduced_costs(tableau, basis, [0] * n_cols + [1] * m)
    unb = _run_phase(tableau, cost, basis, width)
    if unb is not None:
        raise InternalInvariantError("phase-1 objective is bounded below by zero")
    if cost[width] < 0:
        den = cost[-1]
        return ("infeasible",
                tuple(Fraction(signs[i] * (den - cost[n_cols + i]), den) for i in range(m)))

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
        return ("unbounded", z, tuple(ray))

    duals = [_ZERO] * m
    for i in keep:
        duals[i] = Fraction(-signs[i] * cost[n_cols + i], cost[-1])
    return ("optimal", z, tuple(duals))


def solve_lp(a: Matrix, b: Vector, c: Vector, sense: str = "max") -> LpResult:
    """Exact optimum of (max|min) c.x subject to a.x <= b, x free."""
    if sense not in ("max", "min"):
        raise ContractViolation(f"sense must be 'max' or 'min', got {sense!r}")
    m = len(a)
    n = len(c)
    check_dim(b, m, "right-hand side")
    for row in a:
        check_dim(row, n, "constraint row")

    # obj is den * (c for max, -c for min); z = (x+, x-, slack), minimize -obj.z
    obj, den = clear_denominators(c if sense == "max" else [-q for q in c])
    rows, data, scales = [], [], []
    for i, (row, bi) in enumerate(zip(a, b)):
        *p, w, q = int_row([*row, 1, bi])
        rows.append([*p, *(-v for v in p), *[0] * i, w, *[0] * (m - i - 1), w, q])
        data.append((*p, q))
        scales.append(w)

    outcome = _simplex_standard(rows, [-v for v in obj] + obj + [0] * m)
    if outcome[0] == "infeasible":
        y = int_row([-u for u in outcome[1]])
        weights, _, combo = _on_data(y, scales, data, n)
        if any(v < 0 for v in weights) or any(combo[:-1]) or combo[-1] >= 0:
            raise InternalInvariantError("infeasibility certificate fails substitution")
        return LpResult(LpStatus.INFEASIBLE, certificate=tuple(map(Fraction, y)))
    if outcome[0] == "unbounded":
        zray = outcome[2]
        ray = int_row([zray[j] - zray[n + j] for j in range(n)])
        if int_dot(obj, ray) <= 0 or any(int_dot(r[:-1], ray) > 0 for r in data):
            raise InternalInvariantError("unboundedness certificate fails substitution")
        return LpResult(LpStatus.UNBOUNDED, certificate=tuple(map(Fraction, ray)))
    _, z, duals = outcome
    x = tuple(z[j] - z[n + j] for j in range(n))
    point, dx = clear_denominators(x)
    # -duals are the multipliers for obj: sum_i weights_i data_i = dw (obj, obj.x)
    weights, dw, combo = _on_data([-u for u in duals], scales, data, n)
    if (any(v < 0 for v in weights) or combo[:-1] != [dw * v for v in obj]
            or dx * combo[-1] != dw * int_dot(obj, point)
            or any(int_dot(r[:-1], point) > r[-1] * dx for r in data)):
        raise InternalInvariantError("optimality certificate fails substitution")
    return LpResult(LpStatus.OPTIMAL, x=x, certificate=tuple(-u / den for u in duals),
                    objective=dot(c, x))


def _on_data(y: Sequence[Fraction | int], scales: Sequence[int],
             data: Sequence[Sequence[int]], n: int) -> tuple[IntRow, int, IntRow]:
    """Weights y_i / scales_i on data_i = scales_i (a_i, b_i) as ints over one
    positive denominator, that denominator, and sum_i weights_i data_i."""
    weights, den = clear_denominators([Fraction(q, s) for q, s in zip(y, scales)])
    return weights, den, [sum(w * r[j] for w, r in zip(weights, data)) for j in range(n + 1)]


def cone_membership(generators: Sequence[Vector], target: Vector) -> ConeMembership:
    """Decide target in cone(generators), exactly, with a witness either way.

    cone(()) is {0}: the zero target is a member with no multipliers and
    anything else is separated by itself.

    The simplex runs on integer columns: generator j and the target are
    scaled by the lcms L_j and L_t of their own denominators.  A positive
    column or right-hand-side scale moves neither Bland's pivots nor the
    phase-1 duals, so the multipliers z'_j found for the scaled data give
    z'_j * L_j / L_t, the answer on the caller's data, and the separator
    is the same vector.  Both are checked by exact integer substitution
    against the scaled data before they are returned.
    """
    d = len(target)
    for g in generators:
        check_dim(g, d, "generator")
    if not generators:
        if is_zero(target):
            return ConeMembership(True, multipliers=())
        return ConeMembership(False, separator=primitive(target))

    columns, scales = zip(*map(clear_denominators, generators))
    rhs, rhs_scale = clear_denominators(target)
    rows = tuple(zip(*columns))
    outcome = _simplex_standard([[*row, 1, h] for row, h in zip(rows, rhs)],
                                [0] * len(columns))
    if outcome[0] == "optimal":
        z = outcome[1]
        weights, den = clear_denominators(z)
        if (any(w < 0 for w in weights)
                or [int_dot(weights, row) for row in rows] != [den * a for a in rhs]):
            raise InternalInvariantError("membership multipliers fail substitution")
        return ConeMembership(True, multipliers=tuple(
            q * s / rhs_scale for q, s in zip(z, scales)))
    h = int_row(outcome[1])
    if int_dot(h, rhs) <= 0 or any(int_dot(h, col) > 0 for col in columns):
        raise InternalInvariantError("separating vector fails substitution")
    return ConeMembership(False, separator=tuple(map(Fraction, h)))
