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
The scan takes the prefixes a run at a time, a run being the prefixes
that differ only in x_{n-1}.  Along a run each row sum is an arithmetic
progression in x_{n-1}, with nonnegative step: a row with last
coefficient 0 fails on an initial stretch of the run and holds after
it, and t is the max of 0 and one ceiling quotient of a ``range`` per
row, taken for the whole run by ``map``.  The predecessor tests compare
the run with itself shifted by one and with the stored run strides[j]
prefixes back.

The integer hull is conv(minimal points) + R^n_+, and ``hull()`` reads
it from the points on a lower convex chain.  Within a run of the sorted
points, the points that share x_1..x_{n-2}, x_{n-1} rises and x_n falls,
and one monotone-chain pass (Andrew 1979) in the (x_{n-1}, x_n) plane
drops every point b on or above the segment between two points a and c
of its run.  That is exact: b = lambda a + (1 - lambda) c + mu e_n with
0 < lambda < 1 and mu >= 0, so the row (b, -1) is the same combination
of (a, -1), (c, -1) and (e_n, 0), each drop keeps conv + R^n_+, and the
polar cone, pointed, keeps its sorted primitive rays.  In the plane
(n = 2) every point is in the one run and the chain is strictly convex,
so its points are the hull's vertices in order and the facets are
written down from it: the two end rays and one edge per consecutive
pair, with no double description.  Otherwise the double description
gets the n unit rays (e_j, 0) first and then (p, -1) for each chain
point p.

Everything here stores ints and runs on them: a ``CoveringInstance``
[M | d] times one common denominator, which the box and the scan read as
it is (a positive scale keeps the feasible set), and a
``MinimalPointSet`` its points.  [M | d] is type-tested once, whole, and
read by ``linalg.vector`` only if an entry is not an int; the sign checks
read the stored ints.  ``M`` and ``d`` are the Fraction views of the data,
made on read; a ``MinimalPointSet``'s ``points`` are its int tuples.

Every ``MinimalPointSet`` re-checks its antichain, the scan's output
included, with bitsets instead of pairs: after the lexicographic sort,
each coordinate c >= 1 maps each of its distinct values v to the int
bitmask of the points with x_c >= v, and the AND of those masks at a
point's values, above its own index, holds the later points above it.
For p points in N^n that is one sort per coordinate, O(n p) lookups and
ANDs of p-bit ints and at most p bits per distinct value and coordinate,
in place of O(n p^2) comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, groupby, product, repeat
from math import gcd
from operator import and_, floordiv, gt, itemgetter, mul
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
    weights them as given); == and hash read those stored fields, and
    repr prints the Fraction views (M, d)."""

    rows: tuple[tuple[int, ...], ...]
    denominator: int

    def __init__(self, M: Iterable[Iterable], d: Iterable):
        m_rows = tuple(map(tuple, M))
        if any(len(row) != len(m_rows[0]) for row in m_rows):
            raise ContractViolation("matrix rows have unequal lengths")
        demand = tuple(d)
        if not m_rows:
            raise ContractViolation("a covering instance needs at least one row")
        if not m_rows[0]:
            raise ContractViolation("a covering instance needs at least one variable")
        linalg.check_dim(demand, len(m_rows), "demand vector")
        rows, common = tuple(map(tuple.__add__, m_rows, zip(demand))), 1
        if not {*map(type, chain.from_iterable(rows))} <= {int}:
            width = len(rows[0])
            flat, common = linalg.clear_denominators(
                linalg.vector(chain.from_iterable(rows)))
            rows = tuple(tuple(flat[i:i + width]) for i in range(0, len(flat), width))
        # common > 0 keeps every sign; a value prints as given, stored / common
        for i, row in enumerate(rows):
            if min(row[:-1]) < 0:
                j = next(j for j, entry in enumerate(row) if entry < 0)
                raise ContractViolation(
                    "covering data must be nonnegative: "
                    f"M[{i + 1}][{j + 1}] = {Fraction(row[j], common)}", at=("M", i, j))
            if row[-1] < 0:
                raise ContractViolation(
                    "covering data must be nonnegative: "
                    f"d[{i + 1}] = {Fraction(row[-1], common)}", at=("d", i))
            if row[-1] > 0 and not any(row[:-1]):
                raise ContractViolation(
                    f"row {i + 1} demands {Fraction(row[-1], common)} with all-zero "
                    "coefficients; the instance would be empty", at=("M", i))
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "denominator", common)

    @property
    def M(self) -> Matrix:
        return tuple(tuple(Fraction(a, self.denominator) for a in row[:-1])
                     for row in self.rows)

    @property
    def d(self) -> Vector:
        return tuple(Fraction(row[-1], self.denominator) for row in self.rows)

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


@dataclass(frozen=True, init=False)
class MinimalPointSet:
    """An antichain of feasible integer points that dominates every
    feasible integer point; lexicographically sorted.  ``points`` are
    stored, and read, as int tuples.

    The constructor checks every input: the points must lie in N^n for
    one n and form an antichain.  The antichain check runs on bitmasks
    (see ``_at_least``): O(n p) ANDs of p-bit ints and at most p bits of
    masks per distinct value and coordinate.  It reports the first
    comparable pair in sorted order, as a pairwise scan would."""

    points: tuple[tuple[int, ...], ...]

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
        object.__setattr__(self, "points", tuple(ints))

    def hull(self) -> HPolyhedron:
        """Irredundant H-representation of conv(points) + R^n_+; for the
        minimal points of a covering instance this is its integer hull.

        Only the points that ``_lower_chains`` keeps are read.  Each
        dropped point is a convex combination of two points of its run
        plus mu e_n with mu >= 0, so its row lies in the cone of theirs and
        (e_n, 0): the polar cone, which is pointed, and its sorted
        primitive rays do not change.

        With n = 2 the kept points are the vertices, x1 rising and x2
        falling, and the facets need no double description:
        x1 >= a1 at the first vertex a, x2 >= c2 at the last vertex c, and
        for each consecutive pair (a, c) the edge u x1 + v x2 >= u a1 + v a2
        with (u, v) = (a2 - c2, c1 - a1) divided by its gcd.  Sorted, these
        are the rows ``_v_to_h_rows`` would read off the polar's rays.
        Otherwise the double description gets the n unit rays (e_j, 0)
        first, then (p, -1) for each kept point p."""
        if not self.points:
            raise ContractViolation("the hull of an empty point set is undefined")
        n = len(self.points[0])
        lower = _lower_chains(self.points)
        if n == 2:
            rows = [(-1, 0, -lower[0][0]), (0, -1, -lower[-1][1])]
            for a, c in zip(lower, lower[1:]):
                u, v = a[1] - c[1], c[0] - a[0]
                g = gcd(u, v)
                u, v = u // g, v // g
                rows.append((-u, -v, -(u * a[0] + v * a[1])))
            return HPolyhedron(2, tuple(map(_from_row, sorted(rows))))
        rows = [tuple(int(i == j) for i in range(n + 1)) for j in range(n)]
        rows.extend(p + (-1,) for p in lower)
        return _v_to_h_rows(n, rows)


def _lower_chains(points: Sequence[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The sorted antichain without the points that lie on or above the
    segment between two others of their run: a maximal block of points
    that share x_1..x_{n-2}.  One monotone-chain pass (Andrew 1979) per
    run keeps its lower convex chain in the (x_{n-1}, x_n) plane.  Along a
    run x_{n-1} rises and x_n falls, as in any antichain, so a point b
    dropped between a and c is lambda a + (1 - lambda) c + mu e_n with
    0 < lambda < 1 and mu >= 0.  An antichain in N^1 is one point, which
    its one run keeps."""
    kept: list[tuple[int, ...]] = []
    for _, run in groupby(points, key=itemgetter(slice(-2))):
        lower: list[tuple[int, ...]] = []
        for c in run:
            # drop b while it is on or above the segment from a to c: the
            # turn a, b, c is clockwise or straight
            while len(lower) > 1:
                a, b = lower[-2], lower[-1]
                if (b[-2] - a[-2]) * (c[-1] - a[-1]) > (b[-1] - a[-1]) * (c[-2] - a[-2]):
                    break
                lower.pop()
            lower.append(c)
        kept += lower
    return kept


def _natural(p: Sequence) -> tuple[int, ...] | None:
    """p as a tuple of ints when every entry is a nonnegative integer."""
    if {*map(type, p)} <= {int} and (not p or min(p) >= 0):
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

    Scans the prefixes x' of the box in lexicographic order, one run of
    x_{n-1} = 0..B_{n-1} at a time.  A prefix that fails a row with last
    coefficient 0 stores B_n + 1, above every least last coordinate
    t(x') <= B_n, so the minimality test is one comparison per
    predecessor: (x', t(x')) is kept when every x' - e_j with x'_j > 0
    stores a larger value.  Along a run every row sum is an arithmetic
    progression in x_{n-1} with nonnegative step: a row with last
    coefficient 0 fails on an initial stretch of the run and holds after
    it, and t is the max of 0 and one ceiling quotient of a progression
    per other row, taken for the whole run at once.  The run's predecessors
    are the run shifted by one and the stored runs strides[j] prefixes
    back."""
    *prefix_box, last_bound = enumeration_box(q)
    if not prefix_box:
        # n = 1: a row with M_i1 = 0 has d_i = 0, so t(()), the one
        # minimal point, is B_1, the largest ceil(d_i / M_i1)
        return MinimalPointSet(((last_bound,),))
    *outer_box, inner_bound = prefix_box
    width = inner_bound + 1
    blocked = last_bound + 1
    # the rows with last coefficient 0 and the others, split so that
    # row.prefix = row[:-3] . outer prefix + a * x_{n-1}, a = row[-3]
    fixed = [(row[:-3], row[-3], row[-1]) for row in q.rows if row[-2] == 0]
    lifting = [(row[:-3], row[-3], row[-2], row[-1]) for row in q.rows if row[-2] > 0]
    # Prefixes are enumerated in row-major order, so x' - e_j sits
    # strides[j] entries back in ``least``.
    strides = [width] * len(outer_box)
    for j in range(len(outer_box) - 1, 0, -1):
        strides[j - 1] = strides[j] * (outer_box[j] + 1)
    least: list[int] = []
    kept: list[tuple[int, ...]] = []
    for outer in product(*(range(b + 1) for b in outer_box)):
        # the rows in ``fixed`` hold exactly from x_{n-1} = first on
        first = 0
        for row, a, rhs in fixed:
            short = rhs - sum(map(mul, row, outer))
            if short > 0:
                first = max(first, -(-short // a) if a else width)
        if first >= width:
            least.extend(repeat(blocked, width))
            continue
        length = width - first
        # ceil((rhs - row.prefix) / last) = floor((rhs - row.prefix + last - 1) / last)
        # along the run; t is the largest of these and 0
        ceils = [
            map(floordiv, range(top, top - a * length, -a), repeat(last)) if a
            else repeat(top // last, length)
            for row, a, last, rhs in lifting
            for top in (rhs - sum(map(mul, row, outer)) - a * first + last - 1,)]
        run = list(reduce(partial(map, max), ceils, repeat(0, length)))
        # the previous entry of the run is blocked before ``first`` and
        # missing at x_{n-1} = 0; B_n + 1 stands for both
        preds = [[blocked, *run[:-1]]]
        at = len(least) + first
        preds.extend(least[at - stride:at - stride + length]
                     for stride, x in zip(strides, outer) if x)
        least.extend(repeat(blocked, first))
        least.extend(run)
        lowest = reduce(partial(map, min), preds)
        kept.extend(outer + point for point in compress(
            zip(range(first, width), run), map(gt, lowest, run)))
    return MinimalPointSet(tuple(kept))


def down_set_contains(e1: Iterable[Sequence], e2: Iterable[Sequence]) -> bool:
    """Is {x : x <= some point of e1} contained in {x : x <= some point of
    e2}?  For finitely generated down-sets this is exactly generator
    domination."""
    e2_pts = [tuple(linalg.vector(p)) for p in e2]
    return all(
        any(dominates(p1, p2) for p2 in e2_pts)
        for p1 in (tuple(linalg.vector(p)) for p in e1)
    )
