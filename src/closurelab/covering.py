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

Everything here stores ints and runs on them: a ``CoveringInstance``
[M | d] times one common denominator, which the box and the scan read as
it is (a positive scale keeps the feasible set), and a
``MinimalPointSet`` its points, which ``hull()`` hands with the unit
rays to the double description.  Their Fractions (``M``, ``d``,
``points``) are views made on read.

Every ``MinimalPointSet`` re-checks its antichain, the scan's output
included, with bitsets instead of pairs: after the lexicographic sort,
each coordinate c >= 1 maps each of its distinct values v to the int
bitmask of the points with x_c >= v, and the AND of those masks at a
point's values, above its own index, holds the later points above it.
For p points in N^n that is one sort per coordinate, O(n p) lookups and
ANDs of p-bit ints and at most p bits per distinct value and coordinate,
in place of O(n p^2) comparisons.  ``minimal_elements`` runs on the same
masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import product
from operator import and_, mul
from typing import Iterable, Sequence

from .errors import ContractViolation
from . import linalg
from .linalg import Matrix, Vector
from .polyhedron import HPolyhedron, _from_row, _v_to_h_rows


@dataclass(frozen=True, init=False, repr=False)
class CoveringInstance:
    """{x in R^n_+ : Mx >= d} with M >= 0 and d >= 0 entrywise.

    Such a set is never empty (sufficiently large points are feasible),
    which the constructor enforces: a row with positive demand must have
    a positive coefficient somewhere.  Stored as ``rows``, [M | d] times
    the lcm of its denominators (one scale for all rows, as aggregation
    weights them as given); ==, hash and repr are those of (M, d)."""

    rows: tuple[tuple[int, ...], ...]
    denominator: int

    def __init__(self, M: Iterable[Iterable], d: Iterable):
        m_rows = tuple(map(linalg.exact_row, M))
        if any(len(row) != len(m_rows[0]) for row in m_rows):
            raise ContractViolation("matrix rows have unequal lengths")
        demand = linalg.exact_row(d)
        if not m_rows:
            raise ContractViolation("a covering instance needs at least one row")
        if not m_rows[0]:
            raise ContractViolation("a covering instance needs at least one variable")
        linalg.check_dim(demand, len(m_rows), "demand vector")
        for i, row in enumerate(m_rows):
            for j, entry in enumerate(row):
                if entry < 0:
                    raise ContractViolation(
                        f"covering data must be nonnegative: M[{i + 1}][{j + 1}] = {entry}",
                        at=("M", i, j))
            if demand[i] < 0:
                raise ContractViolation(
                    f"covering data must be nonnegative: d[{i + 1}] = {demand[i]}",
                    at=("d", i))
            if demand[i] > 0 and not any(row):
                raise ContractViolation(
                    f"row {i + 1} demands {demand[i]} with all-zero coefficients; "
                    "the instance would be empty", at=("M", i))
        width = len(m_rows[0]) + 1
        flat, common = linalg.clear_denominators(
            [a for row, di in zip(m_rows, demand) for a in row + (di,)])
        object.__setattr__(self, "rows", tuple(
            tuple(flat[i:i + width]) for i in range(0, len(flat), width)))
        object.__setattr__(self, "denominator", common)

    @property
    def M(self) -> Matrix:
        return tuple(tuple(Fraction(a, self.denominator) for a in row[:-1])
                     for row in self.rows)

    @property
    def d(self) -> Vector:
        return tuple(Fraction(row[-1], self.denominator) for row in self.rows)

    def __hash__(self):
        return hash((self.M, self.d))

    def __repr__(self):
        return f"CoveringInstance(M={self.M!r}, d={self.d!r})"

    @property
    def n(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def m(self) -> int:
        return len(self.rows)

    def to_hpolyhedron(self) -> HPolyhedron:
        """The linear relaxation as canonical rows -M_i.x <= -d_i, -x_j <= 0."""
        out = [_from_row(tuple(linalg.lowest_terms([-a for a in row])))
               for row in self.rows if any(row[:-1])]
        out.extend(_from_row(tuple(-int(i == j) for i in range(self.n + 1)))
                   for j in range(self.n))
        return HPolyhedron(self.n, tuple(out))


@dataclass(frozen=True, init=False, repr=False)
class MinimalPointSet:
    """An antichain of feasible integer points that dominates every
    feasible integer point; lexicographically sorted.  The points are
    stored as int tuples; ``points`` is their Fraction view.

    The constructor checks every input: the points must lie in N^n for
    one n and form an antichain.  The antichain check runs on bitmasks
    (see ``_at_least``): O(n p) ANDs of p-bit ints and at most p bits of
    masks per distinct value and coordinate.  It reports the first
    comparable pair in sorted order, as a pairwise scan would."""

    int_points: tuple[tuple[int, ...], ...]

    def __init__(self, points: Iterable[Sequence]):
        points = tuple(points)
        ints = [_natural(p) for p in points]
        if None in ints:
            bad = min(linalg.vector(p) for p, i in zip(points, ints) if i is None)
            raise ContractViolation(f"minimal points live in N^n, got {bad}")
        if len(set(map(len, ints))) > 1:
            raise ContractViolation("minimal points must all have the same dimension")
        ints.sort()
        # The first sorted point that lies below a later one, with the first
        # such later point: the pair a pairwise scan in sorted order meets
        # first.  A later point can only lie below an earlier one by being
        # equal to it, so this one direction catches every comparable pair.
        for i, mask in enumerate(_at_least(ints)):
            if mask.bit_length() > i + 1:
                later = mask >> (i + 1)
                low, high = ints[i], ints[i + (later & -later).bit_length()]
                raise ContractViolation(
                    f"not an antichain: {tuple(map(Fraction, low))} and "
                    f"{tuple(map(Fraction, high))} are comparable")
        object.__setattr__(self, "int_points", tuple(ints))

    @property
    def points(self) -> tuple[Vector, ...]:
        return tuple(tuple(map(Fraction, p)) for p in self.int_points)

    def __repr__(self):
        return f"MinimalPointSet(points={self.points!r})"

    def hull(self) -> HPolyhedron:
        """Irredundant H-representation of conv(points) + R^n_+; for the
        minimal points of a covering instance this is its integer hull."""
        if not self.int_points:
            raise ContractViolation("the hull of an empty point set is undefined")
        n = len(self.int_points[0])
        rows = [p + (-1,) for p in self.int_points]
        rows.extend(tuple(int(i == j) for i in range(n + 1)) for j in range(n))
        return _v_to_h_rows(n, rows)


def _natural(p: Sequence) -> tuple[int, ...] | None:
    """p as a tuple of ints when every entry is a nonnegative integer."""
    if all(type(a) is int and a >= 0 for a in p):
        return tuple(p)
    v = linalg.vector(p)
    if any(a.denominator != 1 or a < 0 for a in v):
        return None
    return tuple(a.numerator for a in v)


def _at_least(points: Sequence[tuple]) -> list[int]:
    """For lexicographically sorted points all of one length, the bitmask
    for each i of the points j with x_c(j) >= x_c(i) at every coordinate
    c >= 1.  Among the later points j > i sorting already orders
    coordinate 0, so the bits above i are exactly the later points that
    lie above point i.

    For each coordinate c >= 1, one sweep over the points in descending
    order of x_c stores, for each distinct value v, the mask of the points
    with x_c >= v; point i then costs one AND per coordinate on p-bit
    ints.  The masks take at most p bits per distinct value and
    coordinate."""
    columns = list(zip(*points))[1:] if len(points) > 1 else ()
    if not columns:
        return [(1 << len(points)) - 1] * len(points)
    per_column = []
    for column in columns:
        # equal values sort next to each other, so the last write for v
        # comes after every point with x_c >= v has joined ``above``
        masks: dict = {}
        above = 0
        for j in sorted(range(len(column)), key=column.__getitem__, reverse=True):
            above = masks[column[j]] = above | 1 << j
        per_column.append(map(masks.__getitem__, column))
    return list(reduce(partial(map, and_), per_column))


def dominates(low, high) -> bool:
    """low <= high componentwise."""
    return all(a <= b for a, b in zip(low, high))


def enumeration_box(q: CoveringInstance) -> tuple[int, ...]:
    """The exact per-coordinate bounds B_j; every minimal integer point
    satisfies x_j <= B_j."""
    bounds = [0] * q.n
    for row in q.rows:
        for j, a in enumerate(row[:-1]):
            if a > 0:
                need = -(-row[-1] // a)  # ceil(d_i / M_ij)
                if need > bounds[j]:
                    bounds[j] = need
    return tuple(bounds)


def minimal_integer_points(q: CoveringInstance) -> MinimalPointSet:
    """Exactly the minimal elements of {x in N^n : Mx >= d}.

    Scans the prefixes x' of the box in lexicographic order.  A prefix
    that fails a row with last coefficient 0 stores B_n + 1, above every
    least last coordinate t(x') <= B_n, so the minimality test is one
    comparison per predecessor: (x', t(x')) is kept when every x' - e_j
    with x'_j > 0 stores a larger value."""
    *prefix_box, last_bound = enumeration_box(q)
    fixed = [(row[:-2], row[-1]) for row in q.rows if row[-2] == 0]
    lifting = [(row[:-2], row[-2], row[-1]) for row in q.rows if row[-2] > 0]
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
    # A point is dropped when an earlier kept point lies below it; by
    # transitivity, the points a dropped one lies below are dropped already.
    # Bits at or below i in point i's mask are never read again.
    dropped = 0
    kept: list[Vector] = []
    for i, (p, mask) in enumerate(zip(pts, _at_least(pts))):
        if not dropped >> i & 1:
            kept.append(p)
            dropped |= mask
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
