"""Seeded randomized verification suites for every module's invariants.

Each suite generates instances from a deterministic seed, checks the
module's exact invariants, and reports counts plus a counterexample dump
for any failure.  Counterexamples are greedily shrunk (drop a generator
or a row while the failure persists) and printed in instance-file form so
they can be re-run directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, product
from typing import Callable

from . import linalg
from .linalg import int_dot
from .lp import LpStatus, solve_lp
from .polyhedron import IntRows, dimension, is_subset
from .cone import GeneratedCone, certified_extreme_rows, check_theorem1, is_pointed
from .errors import NotFullDimensionalError
from .covering import (
    CoveringInstance,
    dominates,
    enumeration_box,
    minimal_integer_points,
)
from .aggregation import (
    HULL_FACET,
    SIGN,
    aggregate,
    classify_cuts,
    closure_approx,
)
from .io import format_cone, format_covering

_ZERO = Fraction(0)

SUITES = ("farkas", "cone", "covering", "aggregation", "all")


@dataclass
class SuiteReport:
    name: str
    seed: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, dump: Callable[[], str]) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(dump())


def _shrink_generators(gens: IntRows, fails: Callable[[IntRows], bool]):
    """Greedy removal: drop generators one at a time while the predicate
    still fails.  The predicate answers every candidate and does not
    raise (``suite_cone``'s catches every error itself).  Exact minimality
    is not attempted."""
    current = list(gens)
    changed = True
    while changed and len(current) > 1:
        changed = False
        for i in range(len(current)):
            candidate = tuple(current[:i] + current[i + 1:])
            if fails(candidate):
                current = list(candidate)
                changed = True
                break
    return tuple(current)


# ---------------------------------------------------------------------------
# farkas suite


def random_lp(rng: random.Random):
    n = rng.randint(1, 6)
    m = rng.randint(1, 6)
    a = tuple(tuple(Fraction(rng.randint(-5, 5)) for _ in range(n)) for _ in range(m))
    b = tuple(Fraction(rng.randint(-5, 5)) for _ in range(m))
    c = tuple(Fraction(rng.randint(-5, 5)) for _ in range(n))
    return a, b, c


def dual_of_max(a, b, c):
    """Dual of max c.x s.t. a.x <= b (x free): min b.y, aT y = c, y >= 0."""
    m, n = len(a), len(c)
    at = tuple(zip(*a)) if a else ((),) * n
    rows = []
    rhs = []
    for j in range(n):
        rows.append(at[j])
        rhs.append(c[j])
        rows.append(linalg.neg(at[j]))
        rhs.append(-c[j])
    for i in range(m):
        rows.append(linalg.neg(linalg.unit(m, i)))
        rhs.append(_ZERO)
    return tuple(rows), tuple(rhs), b


def suite_farkas(seed: int, count: int = 200) -> SuiteReport:
    """Random LPs: every certificate verifies by exact substitution and
    every optimum matches a dual optimum exactly."""
    rng = random.Random(seed)
    report = SuiteReport("farkas", seed)
    for idx in range(count):
        a, b, c = random_lp(rng)
        res = solve_lp(a, b, c, "max")

        def dump(reason):
            return (f"instance {idx}: {reason}\nA = {a}\nb = {b}\nc = {c}")

        if res.status is LpStatus.OPTIMAL:
            primal_ok = all(linalg.dot(row, res.x) <= bi for row, bi in zip(a, b))
            report.check(primal_ok, lambda: dump("optimal point infeasible"))
            da, db, dc = dual_of_max(a, b, c)
            dual = solve_lp(da, db, dc, "min")
            report.check(
                dual.status is LpStatus.OPTIMAL and dual.objective == res.objective,
                lambda: dump(f"dual mismatch: primal {res.objective}, dual "
                             f"{dual.status} {dual.objective}"))
        elif res.status is LpStatus.INFEASIBLE:
            y = res.certificate
            ok = (all(q >= 0 for q in y)
                  and all(linalg.dot(y, col) == 0 for col in zip(*a))
                  and linalg.dot(y, b) < 0)
            report.check(ok, lambda: dump(f"bad Farkas certificate {y}"))
        else:
            r = res.certificate
            ok = (linalg.dot(c, r) > 0
                  and all(linalg.dot(row, r) <= 0 for row in a))
            report.check(ok, lambda: dump(f"bad improving ray {r}"))
            da, db, dc = dual_of_max(a, b, c)
            dual = solve_lp(da, db, dc, "min")
            report.check(dual.status is LpStatus.INFEASIBLE,
                         lambda: dump("primal unbounded but dual not infeasible"))
    return report


# ---------------------------------------------------------------------------
# cone suite


def random_pointed_cones(seed: int, count: int = 50):
    """Seeded generators: cones in Q^3 / Q^4 containing (0, ..., 0, 1) with
    nonnegative last coordinates (so the closure contains the origin) and a
    full-dimensional closure.  Full dimension is decided by ``is_pointed``,
    a certified LP and no DD (the two are equivalent), so the DD under
    test does not choose the cones it is tested on."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 10000:
        attempts += 1
        n = rng.choice((2, 3))
        gens = [(0,) * n + (1,)]
        for _ in range(rng.randint(2, 5)):
            alpha = tuple(rng.randint(-3, 3) for _ in range(n))
            if not any(alpha):
                continue
            gens.append(alpha + (rng.randint(0, 3),))
        if len(gens) < 2:
            continue
        cone = GeneratedCone(tuple(gens))
        if is_pointed(cone).pointed:
            out.append(cone)
    return out


def random_line_cones(seed: int, count: int = 20):
    """Cones built to contain a line: a pointed sample plus an opposite
    pair (v, 0), (-v, 0); the closure still contains the origin."""
    rng = random.Random(seed)
    base = random_pointed_cones(seed + 1, count)
    out = []
    for cone in base:
        n = cone.n
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        while not any(v):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
        pair = (v + (0,), tuple(-a for a in v) + (0,))
        out.append(GeneratedCone(cone.int_generators + pair))
    return out


def suite_cone(seed: int, count: int = 50, line_count: int = 20) -> SuiteReport:
    """Extreme-ray reconstruction, the DD's extreme rows against the ones
    membership LPs certify, and the pointedness/full-dimension
    equivalence.  The cones are full-dimensional by an LP, so a DD that
    finds one flat fails the Theorem-1 check."""
    report = SuiteReport("cone", seed)
    for cone in random_pointed_cones(seed, count):
        try:
            rep = check_theorem1(cone)
            passed, detail, extreme = rep.passed, rep.detail, rep.extreme_rows
        except NotFullDimensionalError as exc:
            passed, detail, extreme = False, str(exc), None

        def dump(reason):
            def fails(gens):
                try:
                    return not check_theorem1(GeneratedCone(gens)).passed
                except Exception:
                    return False
            shrunk = _shrink_generators(cone.int_generators, fails)
            return f"{reason}\n{format_cone(GeneratedCone(shrunk))}"

        report.check(passed, lambda: dump(f"theorem-1 cross-check failed: {detail}"))
        certified = certified_extreme_rows(cone)
        report.check(extreme == certified,
                     lambda: dump(f"DD extreme rows {extreme} != "
                                  f"certified extreme rows {certified}"))
        full = dimension(cone._system) == cone.n
        pointed = is_pointed(cone).pointed
        report.check(pointed == full,
                     lambda: dump(f"pointed={pointed} but full-dimensional={full}"))
    for cone in random_line_cones(seed, line_count):
        full = dimension(cone._system) == cone.n
        pointed = is_pointed(cone).pointed
        report.check(
            (not pointed) and pointed == full,
            lambda: (f"line-containing cone: pointed={pointed}, "
                     f"full-dimensional={full}\n{format_cone(cone)}"))
    return report


# ---------------------------------------------------------------------------
# covering suite


def random_covering(rng: random.Random) -> CoveringInstance:
    """1-3 rows in 1-3 variables, entries and demands in 0..5; a row with
    positive demand gets a positive entry."""
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)
    rows = []
    demand = []
    for _ in range(m):
        row = [rng.randint(0, 5) for _ in range(n)]
        d = rng.randint(0, 5)
        if d > 0 and not any(row):
            row[rng.randrange(n)] = rng.randint(1, 5)
        rows.append(tuple(row))
        demand.append(d)
    return CoveringInstance(tuple(rows), tuple(demand))


def _feasible_box_points(q: CoveringInstance, box: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every integer point of 0 <= x <= box that meets each row of [M | d],
    tested in ints on ``q.rows`` (the data times a positive scale)."""
    return [x for x in product(*(range(b + 1) for b in box))
            if all(int_dot(row[:-1], x) >= row[-1] for row in q.rows)]


def brute_force_minimal_points(q: CoveringInstance, slack: int = 0):
    """Independent oracle: enumerate the whole (optionally enlarged) box,
    keep the feasible points, and drop every point another feasible point
    dominates (quadratic scan).  The kept points come back sorted, as
    int tuples."""
    feasible = _feasible_box_points(q, tuple(b + slack for b in enumeration_box(q)))
    return tuple(sorted(
        x for x in feasible if not any(y != x and dominates(y, x) for y in feasible)))


def suite_covering(seed: int, count: int = 100) -> SuiteReport:
    """Minimal points against the quadratic oracle, antichain and dominance
    completeness, box-bound soundness, and the covering form of the hull."""
    rng = random.Random(seed)
    report = SuiteReport("covering", seed)
    for idx in range(count):
        q = random_covering(rng)

        def dump(reason):
            return f"instance {idx}: {reason}\n{format_covering(q)}"

        minimal = minimal_integer_points(q)
        points = minimal.points
        oracle = brute_force_minimal_points(q)
        report.check(points == oracle,
                     lambda: dump(f"minimal points {points} != oracle {oracle}"))
        enlarged = brute_force_minimal_points(q, slack=2)
        report.check(points == enlarged,
                     lambda: dump("minimal points change when the box grows"))
        pairwise_ok = not any(
            a != b and dominates(a, b) for a in points for b in points)
        report.check(pairwise_ok, lambda: dump("minimal points are not an antichain"))

        complete = all(any(dominates(p, x) for p in points)
                       for x in _feasible_box_points(q, enumeration_box(q)))
        report.check(complete, lambda: dump("a feasible box point dominates no minimal point"))

        hull = minimal.hull()
        # covering form: every facet reads c.x >= d with c, d >= 0
        signs_ok = all(a <= 0 for f in hull.inequalities for a in f.row)
        report.check(signs_ok, lambda: dump("a hull facet leaves covering form"))
        dd = hull._dd
        rays = not dd.lines and [r[:-1] for r in dd.rays if r[-1] == 0]
        units = sorted(linalg.unit(q.n, j) for j in range(q.n))
        report.check(rays == units, lambda: dump(f"hull rays {rays} != unit vectors"))

        inside = is_subset(hull, q.to_hpolyhedron())
        report.check(inside, lambda: dump("integer hull escapes the relaxation"))
        pts_ok = all(hull.contains(p) for p in points)
        report.check(pts_ok, lambda: dump("a minimal point misses the hull"))
    return report


# ---------------------------------------------------------------------------
# aggregation suite


def random_single_row(rng: random.Random, n: int | None = None) -> CoveringInstance:
    n = n or rng.randint(1, 3)
    row = [rng.randint(0, 5) for _ in range(n)]
    if not any(row):
        row[rng.randrange(n)] = rng.randint(1, 5)
    return CoveringInstance((tuple(row),), (rng.randint(1, 5),))


def random_two_row(rng: random.Random, n: int = 2, max_entry: int = 4) -> CoveringInstance:
    rows = []
    demand = []
    for _ in range(2):
        row = [rng.randint(0, max_entry) for _ in range(n)]
        if not any(row):
            row[rng.randrange(n)] = rng.randint(1, max_entry)
        rows.append(tuple(row))
        demand.append(rng.randint(1, max_entry))
    return CoveringInstance(tuple(rows), tuple(demand))


def suite_aggregation(seed: int, single_count: int = 10, pair_count: int = 5) -> SuiteReport:
    """Single-row exactness, density and k monotonicity, the hull sandwich,
    and facet attribution on stabilized runs."""
    rng = random.Random(seed)
    report = SuiteReport("aggregation", seed)
    for idx in range(single_count):
        q = random_single_row(rng)

        def dump(reason):
            return f"single-row {idx}: {reason}\n{format_covering(q)}"

        hull = minimal_integer_points(q).hull()
        for k, density in ((1, 1), (2, 4)):
            ca = closure_approx(q, k, density)
            report.check(
                ca.stabilized and ca.polyhedron == hull,
                lambda: dump(f"k={k} density={density} closure differs from hull"))

    for idx in range(pair_count):
        q = random_two_row(rng, max_entry=3)

        def dump(reason):
            return f"two-row {idx}: {reason}\n{format_covering(q)}"

        low = closure_approx(q, 1, 2)
        high = closure_approx(q, 1, 4)
        mono = is_subset(high.polyhedron, low.polyhedron)
        report.check(mono, lambda: dump("density doubling did not shrink the closure"))

        deeper = closure_approx(q, 2, 2)
        k_mono = is_subset(deeper.polyhedron, low.polyhedron)
        report.check(k_mono, lambda: dump("raising k did not shrink the closure"))

        hull = minimal_integer_points(q).hull()
        # low.hulls holds the hulls of a grid-order prefix of the samples
        sampled = chain((h.hull for h in low.hulls), (
            minimal_integer_points(aggregate(q, s)).hull()
            for s in low.samples[len(low.hulls):]))
        sandwich = is_subset(hull, low.polyhedron) and all(
            is_subset(low.polyhedron, h) for h in sampled)
        report.check(sandwich, lambda: dump("closure leaves the hull sandwich"))

        if low.stabilized:
            labels = classify_cuts(low)
            report.check(all(c.label in (SIGN, HULL_FACET) for c in labels),
                         lambda: dump("stabilized run left an unattributed facet"))
    return report


def run_suite(name: str, seed: int) -> list[SuiteReport]:
    """The named suite, or every suite in SUITES order for 'all'."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITES)}")
    suites = {"farkas": suite_farkas, "cone": suite_cone, "covering": suite_covering,
              "aggregation": suite_aggregation}
    return [run(seed) for key, run in suites.items() if name in (key, "all")]
