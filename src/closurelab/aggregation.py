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
asks whether it lies in every density-2D hull.  Each density-D hull
contains a density-2D hull, so the density-2D intersection lies in the
approximation, and this containment is their equality: one DD of the
approximation and int dot products.  No change there is evidence of
exactness, not a proof.

Aggregation runs on integer rows: each aggregated row is an integer
combination of the rows ``CoveringInstance`` stores, [M | d] times one
common denominator (never row by row, since the multipliers weight the
rows as given), reduced to lowest terms.  ``closure_approx`` scans each
distinct aggregated row set once, and hulls each distinct set of minimal
points once: the samples that share it share one ``HPolyhedron``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from typing import Iterable, Iterator

from .errors import ContractViolation
from . import linalg
from .linalg import int_dot
from .covering import CoveringInstance, minimal_integer_points
from .polyhedron import (
    HPolyhedron,
    Inequality,
    IntRows,
    format_ge,
    is_subset,
    remove_redundant,
    sorted_unique,
)

SIGN = "SIGN"
HULL_FACET = "HULL_FACET"


@dataclass(frozen=True)
class AggregationSample:
    """A tuple of multiplier rows, each a nonnegative vector over the
    instance's rows as a primitive int row; at least one row must be
    nonzero.  Zero rows are legal and aggregate to the trivial 0 >= 0."""

    multipliers: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(linalg.int_row(tuple(r))) for r in self.multipliers)
        if not rows:
            raise ContractViolation("a sample needs at least one multiplier row")
        width = len(rows[0])
        for r in rows:
            linalg.check_dim(r, width, "multiplier row")
            if any(a < 0 for a in r):
                raise ContractViolation(
                    f"multipliers must be nonnegative, got {tuple(map(Fraction, r))}")
        if all(linalg.is_zero(r) for r in rows):
            raise ContractViolation("at least one multiplier row must be nonzero")
        object.__setattr__(self, "multipliers", rows)

    @classmethod
    def _of_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "AggregationSample":
        """The sample of grid rows already primitive, not checked again."""
        s = object.__new__(cls)
        object.__setattr__(s, "multipliers", rows)
        return s

    def describe(self) -> str:
        return "[" + "; ".join(map(linalg.format_vector, self.multipliers)) + "]"


@dataclass(frozen=True)
class AggregatedHull:
    """One sampled relaxation: the sample and the exact integer hull of
    the lattice points of its aggregated instance, ``aggregate(q,
    sample)``."""

    sample: AggregationSample
    hull: HPolyhedron


@dataclass(frozen=True)
class ClosureApprox:
    """Intersection of the sampled aggregated hulls: an outer approximation
    of the aggregation closure that always contains the instance's integer
    hull.  ``samples`` is every density-D sample in grid order; ``hulls``
    is the hulls built, a grid-order prefix of ``samples`` that ends where
    the hulls first cover every facet of the integer hull, or holds them
    all.  ``stabilized`` records that doubling the density leaves the
    point set unchanged, tested as containment in every density-2D hull
    (necessary, not sufficient, for exactness); it always holds when the
    approximation equals the integer hull, which makes it the exact
    closure."""

    polyhedron: HPolyhedron
    hulls: tuple[AggregatedHull, ...]
    samples: tuple[AggregationSample, ...]
    stabilized: bool


@dataclass(frozen=True)
class CutClass:
    """classify_cuts entry: one closure facet with its attribution."""

    inequality: Inequality
    label: str
    sample: AggregationSample | None = None


def multiplier_rows(m: int, density: int) -> tuple[tuple[int, ...], ...]:
    """All primitive nonnegative integer rows of length m with coordinate
    sum between 1 and density: the exact grid of multiplier directions of
    denominator at most density."""
    if m < 1 or density < 1:
        raise ContractViolation("m and density must be at least 1")
    # product runs in lexicographic order; gcd 1 also excludes the zero row
    return tuple(v for v in product(range(density + 1), repeat=m)
                 if sum(v) <= density and gcd(*v) == 1)


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
    """Each sample with its rows lambda^j [M | d] as primitive integer rows,
    combined from q's rows: [M | d] at one scale, as a scale per row would
    change what a multiplier aggregates.  Each multiplier row must have
    q.m entries, as the grid's rows have."""
    columns = list(zip(*q.rows))
    for sample in samples:
        yield sample, tuple(tuple(linalg.lowest_terms([int_dot(lam, c) for c in columns]))
                            for lam in sample.multipliers)


def _instance(rows: IntRows) -> CoveringInstance:
    return CoveringInstance(tuple(r[:-1] for r in rows), tuple(r[-1] for r in rows))


def aggregate(q: CoveringInstance, sample: AggregationSample) -> CoveringInstance:
    """The k-row covering instance with rows lambda^j M >= lambda^j d, each
    row reduced to canonical primitive form."""
    for lam in sample.multipliers:
        linalg.check_dim(lam, q.m, "multiplier row")
    [(_, rows)] = _aggregated_rows(q, [sample])
    return _instance(rows)


def _hulls_for(q: CoveringInstance, samples: Iterable[AggregationSample],
               built: dict[IntRows, HPolyhedron],
               hulls: dict[IntRows, HPolyhedron]) -> Iterator[AggregatedHull]:
    """The samples' aggregated hulls, each built when it is drawn;
    ``built`` caches each hull by the aggregated integer rows, and
    ``hulls`` by its minimal points."""
    for sample, rows in _aggregated_rows(q, samples):
        if rows not in built:
            points = minimal_integer_points(_instance(rows))
            if points.points not in hulls:
                hulls[points.points] = points.hull()
            built[rows] = hulls[points.points]
        yield AggregatedHull(sample, built[rows])


def _pooled(n: int, hulls: Iterable[AggregatedHull]) -> HPolyhedron:
    """Every hull's rows in one system, each distinct row once."""
    return HPolyhedron(n, sorted_unique(r for h in hulls for r in h.hull.inequalities))


def closure_approx(q: CoveringInstance, k: int, density: int) -> ClosureApprox:
    """The aggregation closure sampled on the density grid.  q's integer
    hull P_I is built first; the density-D hulls follow in grid order
    until every facet of P_I is a row of one of them, and the answer is
    then P_I, stabilized.  If the samples run out first, the answer is
    the redundancy-eliminated intersection of all their hulls, and it is
    stabilized when it lies in every density-2D hull: the density-2D
    intersection, which lies in it, is then the same.  Each distinct set
    of minimal points is hulled once per call; with two variables, as
    every 2-variable instance has, each hull is read off its lower chain
    with no double description.  No LP: P_I is compared with hull rows,
    and the containment is read off the approximation's DD."""
    if k < 1 or density < 1:
        raise ContractViolation("k and density must be at least 1")
    samples = sample_multipliers(q.m, k, density)
    built: dict[IntRows, HPolyhedron] = {}
    by_points: dict[IntRows, HPolyhedron] = {}
    # P_I is the hull of q's own rows, the unit multipliers in grid order;
    # a sample holding every unit row has q's minimal points and shares it
    own = AggregationSample._of_rows(multiplier_rows(q.m, 1))
    [p_i] = _hulls_for(q, [own], built, by_points)
    uncovered = set(p_i.hull.inequalities)
    hulls = []
    for h in _hulls_for(q, samples, built, by_points):
        hulls.append(h)
        uncovered.difference_update(h.hull.inequalities)
        if not uncovered:
            return ClosureApprox(polyhedron=p_i.hull, hulls=tuple(hulls), samples=samples,
                                 stabilized=True)
    poly = remove_redundant(_pooled(q.n, hulls))
    stabilized = is_subset(poly, _pooled(
        q.n, _hulls_for(q, sample_multipliers(q.m, k, 2 * density), built, by_points)))
    return ClosureApprox(polyhedron=poly, hulls=tuple(hulls), samples=samples,
                         stabilized=stabilized)


def _is_sign_constraint(q: Inequality) -> bool:
    *normal, rhs = q.row
    return rhs == 0 and sum(1 for a in normal if a) == 1 and min(normal) == -1


def classify_cuts(ca: ClosureApprox) -> tuple[CutClass, ...]:
    """Label each closure facet: SIGN for a nonnegativity bound, otherwise
    HULL_FACET with the first sampled hull it is facet-defining for.  Each
    hull is the facet list of the full-dimensional conv(points) + R^n_+,
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
