"""Desk-scale aggregation closures of covering instances.

The k-aggregation closure intersects the integer hulls of every k-row
relaxation obtained by aggregating the instance's rows with nonnegative
multipliers.  No finite enumeration of all multiplier tuples exists, so
this module samples them on an exact rational grid: every multiplier row
with nonnegative integer coordinates of total at most the density D,
reduced to primitive form (equivalently, every rational direction of
denominator at most D).  The result is always an outer approximation of
the true closure that contains the instance's integer hull P_I, and
single-row instances are exact at any density because every aggregation
rescales the one row.

``closure_approx`` builds P_I first, then the density-D hulls one at a
time in grid order, and stops at the first sample where every facet of
P_I is a row of some hull built so far.  P_I lies in every intersection
of sampled hulls, and from then on the hulls built already cut it out,
so the approximation is P_I, the closure itself, and doubling the
density cannot change it: ``stabilized`` holds.  Every hull and P_I is a
full-dimensional canonical facet list, so the test needs no LP and no
intersection.  A run that builds every sample without covering P_I
intersects them all; that approximation is not P_I, and ``stabilized``
compares it with the density-2D intersection.  No change there is
evidence of exactness, not a proof.

Aggregation runs on integer rows: [M | d] times one common denominator
(never row by row, since the multipliers weight the rows as given), each
aggregated row an integer combination reduced to lowest terms.
``closure_approx`` caches each aggregated instance and its hull by those
rows, and makes the Fraction ``CoveringInstance`` only for a new one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, lcm
from typing import Callable, Iterable, Iterator

from .errors import ContractViolation
from . import linalg
from .linalg import Vector, int_dot, primitive
from .covering import CoveringInstance, integer_hull
from .polyhedron import (
    HPolyhedron,
    Inequality,
    IntRows,
    format_ge,
    fourier_motzkin_project,
    remove_redundant,
    sorted_unique,
)

_ZERO = Fraction(0)

SIGN = "SIGN"
HULL_FACET = "HULL_FACET"


@dataclass(frozen=True)
class AggregationSample:
    """A tuple of multiplier rows, each a nonnegative vector over the
    instance's rows in canonical primitive form; at least one row must be
    nonzero.  Zero rows are legal and aggregate to the trivial 0 >= 0."""

    multipliers: tuple[Vector, ...]

    def __post_init__(self):
        rows = tuple(primitive(linalg.vector(r)) for r in self.multipliers)
        if not rows:
            raise ContractViolation("a sample needs at least one multiplier row")
        width = len(rows[0])
        for r in rows:
            linalg.check_dim(r, width, "multiplier row")
            if any(a < 0 for a in r):
                raise ContractViolation(f"multipliers must be nonnegative, got {r}")
        if all(linalg.is_zero(r) for r in rows):
            raise ContractViolation("at least one multiplier row must be nonzero")
        object.__setattr__(self, "multipliers", rows)

    @classmethod
    def _of_rows(cls, rows: tuple[Vector, ...]) -> "AggregationSample":
        """The sample of grid rows already primitive, not checked again."""
        s = object.__new__(cls)
        object.__setattr__(s, "multipliers", rows)
        return s

    @property
    def k(self) -> int:
        return len(self.multipliers)

    def describe(self, fmt: Callable[[Vector], str] = linalg.format_vector) -> str:
        return "[" + "; ".join(map(fmt, self.multipliers)) + "]"


@dataclass(frozen=True)
class AggregatedHull:
    """One sampled relaxation: the aggregated covering instance and the
    exact integer hull of its lattice points."""

    sample: AggregationSample
    polyhedron: CoveringInstance
    hull: HPolyhedron


@dataclass(frozen=True)
class ClosureApprox:
    """Intersection of the sampled aggregated hulls: an outer approximation
    of the aggregation closure that always contains the instance's integer
    hull.  ``samples`` is every density-D sample in grid order; ``hulls``
    is the hulls built, a grid-order prefix of ``samples`` that ends where
    the hulls first cover every facet of the integer hull, or holds them
    all.  ``stabilized`` records that doubling the density leaves the
    point set unchanged (necessary, not sufficient, for exactness); it
    always holds when the approximation equals the integer hull, which
    makes it the exact closure."""

    polyhedron: HPolyhedron
    hulls: tuple[AggregatedHull, ...]
    samples: tuple[AggregationSample, ...]
    k: int
    density: int
    stabilized: bool

    @property
    def samples_used(self) -> tuple[AggregationSample, ...]:
        return self.samples


@dataclass(frozen=True)
class CutClass:
    """classify_cuts entry: one closure facet with its attribution."""

    inequality: Inequality
    label: str
    sample: AggregationSample | None = None


@dataclass(frozen=True)
class ProjectionCheck:
    passed: bool
    projected_closure: HPolyhedron
    closure_of_projection: HPolyhedron
    projected_instance: CoveringInstance


def multiplier_rows(m: int, density: int) -> tuple[Vector, ...]:
    """All primitive nonnegative integer rows of length m with coordinate
    sum between 1 and density: the exact grid of multiplier directions of
    denominator at most density."""
    if m < 1 or density < 1:
        raise ContractViolation("m and density must be at least 1")
    rows: list[Vector] = []

    def build(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 0:
            if gcd(*prefix) == 1:  # primitive; also excludes the zero row
                rows.append(linalg.vector(prefix))
            return
        for v in range(remaining + 1):
            build(prefix + [v], remaining - v, slots - 1)

    build([], density, m)  # yields rows in lexicographic order
    return tuple(rows)


def sample_multipliers(m: int, k: int, density: int) -> tuple[AggregationSample, ...]:
    """All k-tuples of grid multiplier rows, deduplicated up to per-row
    scaling and reordering, with tuples whose row set is covered by
    another tuple's row set dropped (their aggregated hull is a superset,
    so they never tighten the intersection).  What remains is every
    size-min(k, #rows) subset of the grid rows; the unit rows are always
    present, so the original constraints always participate."""
    if k < 1:
        raise ContractViolation("k must be at least 1")
    rows = multiplier_rows(m, density)
    size = min(k, len(rows))
    return tuple(AggregationSample._of_rows(combo) for combo in combinations(rows, size))


def _aggregated_rows(q: CoveringInstance, samples: Iterable[AggregationSample]):
    """Each sample with its rows lambda^j [M | d] as primitive integer rows.
    [M | d] is scaled by one common denominator of all its entries: each
    row made primitive on its own would reweight the rows, and so change
    what a multiplier aggregates."""
    stacked = [row + (di,) for row, di in zip(q.M, q.d)]
    common = reduce(lcm, (a.denominator for row in stacked for a in row), 1)
    columns = list(zip(*([a.numerator * (common // a.denominator) for a in row]
                         for row in stacked)))
    for sample in samples:
        rows = []
        for lam in sample.multipliers:
            linalg.check_dim(lam, q.m, "multiplier row")
            weights = [a.numerator for a in lam]  # a primitive row is integral
            rows.append(tuple(linalg.lowest_terms([int_dot(weights, c) for c in columns])))
        yield sample, tuple(rows)


def _instance(rows: IntRows) -> CoveringInstance:
    return CoveringInstance(tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows))


def aggregate(q: CoveringInstance, sample: AggregationSample) -> CoveringInstance:
    """The k-row covering instance with rows lambda^j M >= lambda^j d, each
    row reduced to canonical primitive form."""
    [(_, rows)] = _aggregated_rows(q, [sample])
    return _instance(rows)


def _hulls_for(q: CoveringInstance, samples: Iterable[AggregationSample],
               built: dict[IntRows, tuple[CoveringInstance, HPolyhedron]]
               ) -> Iterator[AggregatedHull]:
    """The samples' aggregated hulls, each built when it is drawn;
    ``built`` caches each aggregated instance and its hull by the
    instance's integer rows."""
    for sample, rows in _aggregated_rows(q, samples):
        if rows not in built:
            agg = _instance(rows)
            built[rows] = (agg, integer_hull(agg))
        yield AggregatedHull(sample, *built[rows])


def _intersect(n: int, hulls: Iterable[AggregatedHull]) -> HPolyhedron:
    pool = []
    for h in hulls:
        pool.extend(h.hull.inequalities)
    return remove_redundant(HPolyhedron(n, sorted_unique(pool)))


def closure_approx(q: CoveringInstance, k: int, density: int) -> ClosureApprox:
    """The aggregation closure sampled on the density grid.  q's integer
    hull P_I is built first; the density-D hulls follow in grid order
    until every facet of P_I is a row of one of them, and the answer is
    then P_I, stabilized.  If the samples run out first, the answer is
    the redundancy-eliminated intersection of all their hulls, and it is
    stabilized when the density-2D intersection is the same.  Each
    distinct aggregated instance's hull is built once per call.  All of
    these contain P_I, so they are compared as facet lists: no LP."""
    if k < 1 or density < 1:
        raise ContractViolation("k and density must be at least 1")
    samples = sample_multipliers(q.m, k, density)
    built: dict[IntRows, tuple[CoveringInstance, HPolyhedron]] = {}
    # P_I: a density-D sample holding every unit row (k >= m) has exactly
    # q's integer points, so its hull is P_I; otherwise q's own rows, the
    # unit multipliers in grid order, are aggregated and hulled
    units = multiplier_rows(q.m, 1)
    own = (next(s for s in samples if set(units).issubset(s.multipliers)) if k >= q.m
           else AggregationSample._of_rows(units))
    [p_i] = _hulls_for(q, [own], built)
    uncovered = set(p_i.hull.inequalities)
    hulls = []
    for h in _hulls_for(q, samples, built):
        hulls.append(h)
        uncovered.difference_update(h.hull.inequalities)
        if not uncovered:
            return ClosureApprox(polyhedron=p_i.hull, hulls=tuple(hulls), samples=samples,
                                 k=k, density=density, stabilized=True)
    poly = _intersect(q.n, hulls)
    stabilized = poly == _intersect(
        q.n, _hulls_for(q, sample_multipliers(q.m, k, 2 * density), built))
    return ClosureApprox(polyhedron=poly, hulls=tuple(hulls), samples=samples,
                         k=k, density=density, stabilized=stabilized)


def _is_sign_constraint(q: Inequality) -> bool:
    v = q.canonical_stacked()
    return v[-1] == 0 and sum(1 for a in v[:-1] if a != 0) == 1 and min(v[:-1]) == -1


def classify_cuts(ca: ClosureApprox) -> tuple[CutClass, ...]:
    """Label each closure facet: SIGN for a nonnegativity bound, otherwise
    HULL_FACET with the first sampled hull it is facet-defining for.  Each
    hull is v_to_h of conv(points) + R^n_+, a full-dimensional facet list,
    so a facet is facet-defining for it exactly when it is a row: no LP.
    Every closure_approx row is a hull row, so a facet in no hull can only
    come from a ClosureApprox built by hand; it raises ContractViolation."""
    out = []
    for facet in ca.polyhedron.inequalities:
        if _is_sign_constraint(facet):
            out.append(CutClass(facet, SIGN))
            continue
        source = next((h.sample for h in ca.hulls if facet in h.hull.inequalities), None)
        if source is None:
            raise ContractViolation(
                f"closure row {format_ge(facet)} is a row of no sampled hull")
        out.append(CutClass(facet, HULL_FACET, source))
    return tuple(out)


def project_instance(q: CoveringInstance, t: int) -> CoveringInstance:
    """The orthogonal projection of a covering instance onto its first t
    coordinates.  A row supported inside the first t coordinates survives
    with its demand; any other row is absorbed by sending the dropped
    coordinates to infinity and becomes trivial."""
    if not 1 <= t < q.n:
        raise ContractViolation(f"t must satisfy 1 <= t < {q.n}, got {t}")
    rows = []
    demand = []
    for row, di in zip(q.M, q.d):
        if all(row[j] == 0 for j in range(t, q.n)):
            rows.append(row[:t])
            demand.append(di)
        else:
            rows.append(linalg.zeros(t))
            demand.append(_ZERO)
    return CoveringInstance(tuple(rows), tuple(demand))


def check_projection_lemma(q: CoveringInstance, t: int, k: int) -> ProjectionCheck:
    """For single-row instances, where the sampled closure is exactly the
    integer hull, verify that projecting the closure equals the closure of
    the projected instance.  Multi-row instances are refused: both sides
    would be sampled approximations and the equality is only guaranteed
    for the exact closures.  Both sides are facet lists, compared as lists."""
    if q.m != 1:
        raise ContractViolation(
            "projection commutation is only checked for single-row instances; "
            f"got {q.m} rows, where the sampled closure may be inexact")
    closure = closure_approx(q, k, 1).polyhedron
    lhs = fourier_motzkin_project(closure, range(t))
    projected = project_instance(q, t)
    rhs = closure_approx(projected, k, 1).polyhedron
    return ProjectionCheck(
        passed=lhs == rhs,
        projected_closure=lhs,
        closure_of_projection=rhs,
        projected_instance=projected)
