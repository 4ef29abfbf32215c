"""Brute-force oracles used by the tests, independent of the library's
conversion and projection code paths, and Fraction reference versions of
the routines the library runs on integer rows (simplex, rank, double
description)."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence
from unittest import mock

from closurelab import linalg, lp
from closurelab.errors import InternalInvariantError
from closurelab.linalg import Matrix, Vector, dot, is_zero, mat_vec, primitive, zeros
from closurelab.lp import LpStatus, solve_lp
from closurelab.polyhedron import HPolyhedron, Inequality

_ZERO = Fraction(0)
_ONE = Fraction(1)


def brute_force_vertices(p: HPolyhedron) -> tuple[Vector, ...]:
    """Vertices by enumeration: solve every n-subset of tight inequalities
    exactly, keep feasible solutions, and confirm vertexhood by the rank of
    the active constraints."""
    n = p.n
    candidates = set()
    for subset in combinations(p.inequalities, n):
        m = tuple(q.normal for q in subset)
        b = tuple(q.rhs for q in subset)
        x = solve_square(m, b)
        if x is None or not p.contains(x):
            continue
        tight = [q.normal for q in p.inequalities if linalg.dot(q.normal, x) == q.rhs]
        if linalg.rank(tight) == n:
            candidates.add(x)
    return tuple(sorted(candidates))


def point_has_extension(p: HPolyhedron, keep: tuple[int, ...], partial: Vector) -> bool:
    """Is some point of p equal to `partial` on the kept coordinates?
    Decided by exact LP feasibility, not by projection."""
    extra = []
    for j, value in zip(keep, partial):
        e = linalg.unit(p.n, j)
        extra.append(Inequality(e, value))
        extra.append(Inequality(linalg.neg(e), -value))
    a = tuple(q.normal for q in p.inequalities + tuple(extra))
    b = tuple(q.rhs for q in p.inequalities + tuple(extra))
    return solve_lp(a, b, linalg.zeros(p.n), "max").status is not LpStatus.INFEASIBLE


def rational_grid(lo: int, hi: int, denominator: int = 2):
    """All p/denominator in [lo, hi]: a small exact sample grid."""
    return [Fraction(k, denominator) for k in range(lo * denominator, hi * denominator + 1)]


def down_set_box_oracle(e1, e2) -> bool:
    """Down-set containment by full enumeration up to the componentwise
    maximum of both generator sets."""
    pts1 = [tuple(int(a) for a in p) for p in e1]
    pts2 = [tuple(int(a) for a in p) for p in e2]
    if not pts1:
        return True
    width = len(pts1[0])
    bound = [0] * width
    for pt in pts1 + pts2:
        for j, v in enumerate(pt):
            bound[j] = max(bound[j], v)

    def in_down_set(x, pts):
        return any(all(a <= b for a, b in zip(x, p)) for p in pts)

    for x in product(*(range(b + 1) for b in bound)):
        if in_down_set(x, pts1) and not in_down_set(x, pts2):
            return False
    return True


def solve_square(m: Matrix, b: Vector) -> Vector | None:
    """Solve m x = b for square m by Gauss-Jordan elimination in Fractions;
    None when m is singular."""
    n = len(m)
    if n == 0:
        return ()
    linalg.check_dim(b, n)
    aug = [list(row) + [rhs] for row, rhs in zip(m, b)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pr = aug[col]
        inv = 1 / pr[col]
        aug[col] = [a * inv for a in pr]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b2 for a, b2 in zip(aug[i], aug[col])]
    return tuple(aug[i][n] for i in range(n))


def fraction_rank(rows: Sequence[Vector]) -> int:
    """Rank by Gauss-Jordan elimination in Fractions."""
    work = [[Fraction(a) for a in r] for r in rows if not is_zero(r)]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pr = work[r]
        for i in range(len(work)):
            if i != r and work[i][col] != 0:
                f = work[i][col] / pr[col]
                work[i] = [a - f * b for a, b in zip(work[i], pr)]
        r += 1
        if r == len(work):
            break
    return r


# ---------------------------------------------------------------------------
# Fraction double description (the reference for polyhedron.dd_cone)


def _line_canonical(v: Vector) -> Vector:
    p = primitive(v)
    lead = next((a for a in p if a != 0), _ZERO)
    return linalg.neg(p) if lead < 0 else p


def fraction_dd_cone(rows: Sequence[Vector], dim: int):
    """Minimal (lines, rays) of {y : r.y <= 0 for all r}, by the same
    incremental double description as polyhedron.dd_cone, in Fractions."""
    lines = [linalg.unit(dim, j) for j in range(dim)]
    rays: list[Vector] = []
    processed: list[Vector] = []
    for raw in rows:
        row = primitive(raw)
        if is_zero(row):
            continue
        processed.append(row)
        vals = [dot(row, l) for l in lines]
        hit = next((j for j in range(len(lines)) if vals[j] != 0), None)
        if hit is not None:
            star = lines[hit] if vals[hit] < 0 else linalg.neg(lines[hit])
            dstar = dot(row, star)
            lines = [_line_canonical(linalg.sub(l, linalg.scale(vals[j] / dstar, star)))
                     for j, l in enumerate(lines) if j != hit]
            new_rays = [primitive(linalg.sub(r, linalg.scale(dot(row, r) / dstar, star)))
                        for r in rays]
            rays = list(dict.fromkeys(new_rays + [primitive(star)]))
            continue
        zero, posi, negi = [], [], []
        for r in rays:
            v = dot(row, r)
            (zero if v == 0 else posi if v > 0 else negi).append((r, v))
        candidates = [r for r, _ in zero] + [r for r, _ in negi]
        for rn, vn in negi:
            for rp, vp in posi:
                w = primitive(linalg.sub(linalg.scale(vp, rn), linalg.scale(vn, rp)))
                if not is_zero(w):
                    candidates.append(w)
        target = dim - len(lines) - 1
        rays = [r for r in dict.fromkeys(candidates)
                if fraction_rank([q for q in processed if dot(q, r) == 0]) == target]
    return tuple(sorted(lines)), tuple(sorted(rays))


# ---------------------------------------------------------------------------
# Fraction simplex (the reference for lp._simplex_standard)


def _pivot(tableau, cost, basis, row, col):
    pr = tableau[row]
    inv = _ONE / pr[col]
    tableau[row] = pr = [a * inv for a in pr]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            f = other[col]
            tableau[i] = [a - f * b for a, b in zip(other, pr)]
    if cost[col] != 0:
        f = cost[col]
        cost[:] = [a - f * b for a, b in zip(cost, pr)]
    basis[row] = col


def _reduced_costs(tableau, basis, full_costs):
    width = len(full_costs)
    cost = list(full_costs) + [_ZERO]
    for i, b in enumerate(basis):
        cb = full_costs[b]
        if cb != 0:
            cost = [a - cb * r for a, r in zip(cost, tableau[i])]
    # entry `width` holds minus the current objective value
    return cost[: width + 1]


def _run_phase(tableau, cost, basis, enterable):
    """Bland's rule: lowest-index entering column, lowest-index basic
    variable on ratio ties.  Returns the entering column of an unbounded
    direction, or None at optimality."""
    while True:
        col = next((j for j in range(enterable) if cost[j] < 0), None)
        if col is None:
            return None
        best_ratio = None
        leave = None
        for i, row in enumerate(tableau):
            if row[col] > 0:
                ratio = row[-1] / row[col]
                if best_ratio is None or ratio < best_ratio or (
                        ratio == best_ratio and basis[i] < basis[leave]):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            return col
        _pivot(tableau, cost, basis, leave, col)


def simplex_standard(rows: Matrix, rhs: Vector, costs: Vector):
    """Fraction two-phase simplex with the contract of
    lp._simplex_standard: min costs.z s.t. rows.z = rhs, z >= 0."""
    m = len(rows)
    n_cols = len(costs)
    signs = [(-_ONE if rhs[i] < 0 else _ONE) for i in range(m)]
    tableau = [
        [signs[i] * a for a in rows[i]]
        + [(_ONE if k == i else _ZERO) for k in range(m)]
        + [signs[i] * rhs[i]]
        for i in range(m)
    ]
    basis = [n_cols + i for i in range(m)]
    width = n_cols + m

    cost = _reduced_costs(tableau, basis, [_ZERO] * n_cols + [_ONE] * m)
    if _run_phase(tableau, cost, basis, width) is not None:
        raise InternalInvariantError("phase-1 objective is bounded below by zero")
    if -cost[-1] > 0:
        u = tuple(signs[i] * (_ONE - cost[n_cols + i]) for i in range(m))
        lp._check_farkas_standard(rows, rhs, u)
        return ("infeasible", u)

    keep = []
    for i in range(m):
        if basis[i] >= n_cols:
            col = next((j for j in range(n_cols) if tableau[i][j] != 0), None)
            if col is None:
                continue
            _pivot(tableau, cost, basis, i, col)
        keep.append(i)
    live_rows = [tableau[i] for i in keep]
    live_basis = [basis[i] for i in keep]

    cost = _reduced_costs(live_rows, live_basis, list(costs) + [_ZERO] * m)
    unb = _run_phase(live_rows, cost, live_basis, n_cols)

    z = list(zeros(n_cols))
    for i, b in enumerate(live_basis):
        if b < n_cols:
            z[b] = live_rows[i][-1]
    z = tuple(z)
    if unb is not None:
        ray = list(zeros(n_cols))
        ray[unb] = _ONE
        for i, b in enumerate(live_basis):
            if b < n_cols:
                ray[b] = -live_rows[i][unb]
        ray = tuple(ray)
        if dot(costs, ray) >= 0 or any(r != 0 for r in mat_vec(rows, ray)):
            raise InternalInvariantError("unbounded ray fails substitution check")
        return ("unbounded", z, ray)

    duals = [_ZERO] * m
    for i in keep:
        duals[i] = signs[i] * (-cost[n_cols + i])
    return ("optimal", z, tuple(duals))


@contextmanager
def fraction_simplex():
    """Within the block, closurelab.lp (solve_lp, cone_membership) runs on
    the Fraction reference simplex above."""
    with mock.patch.object(lp, "_simplex_standard", simplex_standard):
        yield
