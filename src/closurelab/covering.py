"""Covering polyhedra {x >= 0 : Mx >= d} with nonnegative data, their
minimal integer points, and their integer hulls.

The feasible integer points form an upward-closed subset of N^n, so the
finitely many minimal ones generate everything by domination and
conv(minimal points) + R^n_+ is exactly the integer hull.  Every minimal
point lies in the box 0 <= x_j <= B_j with B_j = max over rows i with
M_ij > 0 of ceil(d_i / M_ij): any feasible point with x_j > B_j stays
feasible after decrementing x_j.

Minimal points are found exactly by a scan over the first n-1
coordinates of that box only.  For a prefix x' that satisfies every row
whose last coefficient is 0, the least feasible last coordinate is
t(x') = max(0, max over rows with M_in > 0 of ceil((d_i - M_i'.x') / M_in)),
and t(x') <= B_n because M_i'.x' >= 0.  A minimal point with prefix x'
has x_n = t(x').  As t does not increase when x' grows, (x', t(x')) is
minimal exactly when every predecessor x' - e_j with x'_j > 0 either
fails a row with last coefficient 0 or has a larger t: in an
upward-closed set a point is minimal exactly when no single unit step
down stays feasible.  With t stored per prefix, that is an O(n) test.

The box, the scan and ``MinimalPointSet``'s checks run on ints: each row
of [M | d] scaled to its primitive integer form (a positive scale keeps
the feasible set), and the points as int tuples.  ``hull()`` hands the
points and unit rays to the double description as integer rows.
Fractions are made only for ``CoveringInstance`` data and
``MinimalPointSet.points``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import le, mul
from typing import Iterable, Sequence

from .errors import ContractViolation
from . import linalg
from .linalg import Matrix, Vector
from .polyhedron import HPolyhedron, Inequality, _v_to_h_rows

_ZERO = Fraction(0)


@dataclass(frozen=True)
class CoveringInstance:
    """{x in R^n_+ : Mx >= d} with M >= 0 and d >= 0 entrywise.

    Such a set is never empty (sufficiently large points are feasible),
    which the constructor enforces: a row with positive demand must have
    a positive coefficient somewhere.
    """

    M: Matrix
    d: Vector

    def __post_init__(self):
        m_rows = linalg.matrix(self.M)
        demand = linalg.vector(self.d)
        if not m_rows:
            raise ContractViolation("a covering instance needs at least one row")
        if not m_rows[0]:
            raise ContractViolation("a covering instance needs at least one variable")
        linalg.check_dim(demand, len(m_rows), "demand vector")
        for i, row in enumerate(m_rows):
            for j, entry in enumerate(row):
                if entry < 0:
                    raise ContractViolation(
                        f"covering data must be nonnegative: M[{i + 1}][{j + 1}] = {entry}")
            if demand[i] < 0:
                raise ContractViolation(
                    f"covering data must be nonnegative: d[{i + 1}] = {demand[i]}")
            if demand[i] > 0 and all(entry == 0 for entry in row):
                raise ContractViolation(
                    f"row {i + 1} demands {demand[i]} with all-zero coefficients; "
                    "the instance would be empty")
        object.__setattr__(self, "M", m_rows)
        object.__setattr__(self, "d", demand)

    @property
    def n(self) -> int:
        return len(self.M[0])

    @property
    def m(self) -> int:
        return len(self.M)

    def to_hpolyhedron(self) -> HPolyhedron:
        """The linear relaxation as half-spaces: -M_i.x <= -d_i, -x_j <= 0."""
        out = [Inequality(linalg.neg(row), -di) for row, di in zip(self.M, self.d)
               if not linalg.is_zero(row)]
        out.extend(Inequality(linalg.neg(linalg.unit(self.n, j)), _ZERO)
                   for j in range(self.n))
        return HPolyhedron(self.n, tuple(out))


@dataclass(frozen=True)
class MinimalPointSet:
    """An antichain of feasible integer points that dominates every
    feasible integer point; lexicographically sorted."""

    points: tuple[Vector, ...]
    # the points as int tuples, in the same order; hull() reads these
    _ints: tuple[tuple[int, ...], ...] = field(default=(), init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        ints = [_natural(p) for p in self.points]
        if None in ints:
            bad = min(linalg.vector(p) for p, i in zip(self.points, ints) if i is None)
            raise ContractViolation(f"minimal points live in N^n, got {bad}")
        ints.sort()
        # A point that dominates another sorts before it, and a later point
        # can only dominate an earlier one by being equal to it, so one
        # direction of the test catches every comparable pair.
        for i, low in enumerate(ints):
            for high in ints[i + 1:]:
                if all(map(le, low, high)):
                    raise ContractViolation(
                        f"not an antichain: {_fractions(low)} and {_fractions(high)} "
                        "are comparable")
        object.__setattr__(self, "points", tuple(map(_fractions, ints)))
        object.__setattr__(self, "_ints", tuple(ints))

    def hull(self) -> HPolyhedron:
        """Irredundant H-representation of conv(points) + R^n_+; for the
        minimal points of a covering instance this is its integer hull."""
        if not self._ints:
            raise ContractViolation("the hull of an empty point set is undefined")
        n = len(self._ints[0])
        rows = [p + (-1,) for p in self._ints]
        rows.extend(tuple(int(i == j) for i in range(n + 1)) for j in range(n))
        return _v_to_h_rows(n, rows)


def _natural(p: Sequence) -> tuple[int, ...] | None:
    """p as a tuple of ints when every entry is a nonnegative integer."""
    if all(type(a) is int for a in p):
        ints = tuple(p)
    else:
        v = linalg.vector(p)
        if any(a.denominator != 1 for a in v):
            return None
        ints = tuple(a.numerator for a in v)
    return ints if all(a >= 0 for a in ints) else None


def _fractions(p: tuple[int, ...]) -> Vector:
    return tuple(map(Fraction, p))


def dominates(low, high) -> bool:
    """low <= high componentwise."""
    return all(a <= b for a, b in zip(low, high))


CoveringRows = list[tuple[tuple[int, ...], int]]


def _integer_rows(q: CoveringInstance) -> CoveringRows:
    # Positive rescaling of each row keeps the feasible set; integer rows
    # let the box and the prefix scan run in plain int arithmetic.
    rows = []
    for row, di in zip(q.M, q.d):
        *ints, rhs = linalg.int_row(row + (di,))
        rows.append((tuple(ints), rhs))
    return rows


def _box(rows: CoveringRows) -> tuple[int, ...]:
    bounds = [0] * len(rows[0][0])
    for row, rhs in rows:
        for j, a in enumerate(row):
            if a > 0:
                need = -(-rhs // a)  # ceil(rhs / a)
                if need > bounds[j]:
                    bounds[j] = need
    return tuple(bounds)


def enumeration_box(q: CoveringInstance) -> tuple[int, ...]:
    """The exact per-coordinate bounds B_j; every minimal integer point
    satisfies x_j <= B_j."""
    return _box(_integer_rows(q))


def minimal_integer_points(q: CoveringInstance) -> MinimalPointSet:
    """Exactly the minimal elements of {x in N^n : Mx >= d}.

    Scans the prefixes x' of the box in lexicographic order.  A prefix
    that fails a row with last coefficient 0 stores B_n + 1, above every
    least last coordinate t(x') <= B_n, so the minimality test is one
    comparison per predecessor: (x', t(x')) is kept when every x' - e_j
    with x'_j > 0 stores a larger value."""
    rows = _integer_rows(q)
    *prefix_box, last_bound = _box(rows)
    fixed = [(row[:-1], rhs) for row, rhs in rows if row[-1] == 0]
    lifting = [(row[:-1], row[-1], rhs) for row, rhs in rows if row[-1] > 0]
    blocked = last_bound + 1
    # Prefixes are enumerated in row-major order, so x' - e_j sits
    # strides[j] entries back in ``least``.
    strides = [1] * len(prefix_box)
    for j in range(len(prefix_box) - 1, 0, -1):
        strides[j - 1] = strides[j] * (prefix_box[j] + 1)
    least: list[int] = []
    kept: list[tuple[int, ...]] = []
    for index, prefix in enumerate(product(*(range(b + 1) for b in prefix_box))):
        if any(sum(map(mul, row, prefix)) < rhs for row, rhs in fixed):
            least.append(blocked)
            continue
        t = 0
        for row, last, rhs in lifting:
            # ceil((rhs - row.prefix) / last) in integer arithmetic
            need = -((sum(map(mul, row, prefix)) - rhs) // last)
            if need > t:
                t = need
        least.append(t)
        if all(least[index - stride] > t for stride, x in zip(strides, prefix) if x):
            kept.append(prefix + (t,))
    return MinimalPointSet(tuple(kept))


def minimal_elements(points: Iterable[Sequence]) -> MinimalPointSet:
    """The subset of the given points that is an antichain dominating all
    of them."""
    pts = sorted(set(tuple(linalg.vector(p)) for p in points))
    kept: list[Vector] = []
    for p in pts:
        if not any(dominates(k, p) for k in kept):
            kept.append(p)
    return MinimalPointSet(tuple(kept))


def integer_hull(q: CoveringInstance) -> HPolyhedron:
    """Irredundant H-representation of conv({x in N^n : Mx >= d}), which
    equals conv(minimal points) + R^n_+ and is again of covering form.
    Holding the minimal points already, call their ``hull()`` instead."""
    return minimal_integer_points(q).hull()


def down_set_contains(e1: Iterable[Sequence], e2: Iterable[Sequence]) -> bool:
    """Is {x : x <= some point of e1} contained in {x : x <= some point of
    e2}?  For finitely generated down-sets this is exactly generator
    domination."""
    e2_pts = [tuple(linalg.vector(p)) for p in e2]
    return all(
        any(dominates(p1, p2) for p2 in e2_pts)
        for p1 in (tuple(linalg.vector(p)) for p in e1)
    )
