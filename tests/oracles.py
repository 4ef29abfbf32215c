"""Test-only code: the oracles the library is checked against, and the
few types and helpers that only the tests use.

The oracles, each independent of the library path it checks:
- Fraction versions of the routines the library runs on integer rows:
  simplex, solve_lp with its certificate checks, cone membership, rank
  and double description, and the conversions between the simplex's
  integer rows and the rational rows they stand for;
- LP versions of what the polyhedron's double description decides:
  emptiness, dimension and redundancy, containment, point-set equality
  and the facet test (lp_same_point_set and lp_is_facet_defining are
  also the tests' comparators), with the rank-based facet test and the
  generator-rank dimension that its zero sets replace;
- the LP-pruned V-to-H conversion that v_to_h is checked against on
  full-dimensional input, with the rank test that tells which input is,
  and H to V and projection by a double description of their own
  (round_trip_h_to_v, round_trip_project), which projection_lemma_sides
  uses with project_instance to check the projection lemma on single-row
  covering instances;
- the three-solve implication test that check_implication's single LP
  replaces, the per-generator membership LPs that the polar cone's zero
  sets replace in extreme_rays, the LP-decided cut attribution that
  classify_cuts replaces, and the down-set box enumeration;
- the Fraction hull pipeline (aggregation, minimal point checks, V to
  H, the sampled closure) that the integer rows replace, the hull of
  every minimal point that the lower-chain filter replaces, the
  density-doubling stabilization check and the closure that builds
  every density-D hull before it compares the intersection with the
  integer hull;
- the Fraction text forms of an inequality that Inequality prints from
  its integer row;
- the token-by-token row reader that linalg.parse_row's one-pass read
  replaces, and the denominator-clearing int_row that its one-gcd path
  for int rows replaces.

Test-only types and helpers: VPolyhedron with v_to_h, the tests' entry
to polyhedron._v_to_h_rows; ge; the vector, matrix, inequality and cone
helpers sub, add, scale, mat_vec, vec_mat, transpose, normal_rhs,
flipped, unique_generators, with_unit_last and fii_others; and a broken
copy of dd_cone for mutation tests."""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil
from operator import le
from typing import Sequence
from unittest import mock

from closurelab import linalg, lp, polyhedron
from closurelab.aggregation import (HULL_FACET, SIGN, AggregatedHull, AggregationSample,
                                    ClosureApprox, CutClass, _hulls_for, _intersect,
                                    _is_sign_constraint, closure_approx, multiplier_rows,
                                    sample_multipliers)
from closurelab.cone import GeneratedCone, _line_through
from closurelab.covering import CoveringInstance
from closurelab.errors import (ContractViolation, InconsistentSystemError,
                               InternalInvariantError, InvalidInequalityError,
                               NotFullDimensionalError, NotPointedError, ParseError)
from closurelab.linalg import (Matrix, Vector, check_dim, combine, dot, int_dot, int_row,
                               is_zero, primitive, rational, zeros)
from closurelab.lp import ConeMembership, LpResult, LpStatus, solve_lp
from closurelab.polyhedron import (HPolyhedron, Implication, Inequality, _v_to_h_rows,
                                   check_implication, dd_cone, empty_hpolyhedron,
                                   remove_redundant, sorted_unique)

_ZERO = Fraction(0)
_ONE = Fraction(1)

UNATTRIBUTED = "UNATTRIBUTED"


def sub(u: Vector, v: Vector) -> Vector:
    check_dim(v, len(u))
    return tuple(a - b for a, b in zip(u, v))


def add(u: Vector, v: Vector) -> Vector:
    check_dim(v, len(u))
    return tuple(a + b for a, b in zip(u, v))


def scale(c, v: Vector) -> Vector:
    c = rational(c)
    return tuple(c * a for a in v)


def mat_vec(m: Matrix, x: Vector) -> Vector:
    return tuple(dot(row, x) for row in m)


def vec_mat(y: Vector, m: Matrix) -> Vector:
    check_dim(y, len(m))
    if not m:
        return ()
    n = len(m[0])
    return tuple(sum((y[i] * m[i][j] for i in range(len(m))), Fraction(0)) for j in range(n))


def transpose(m: Matrix) -> Matrix:
    if not m:
        return ()
    return tuple(tuple(row[j] for row in m) for j in range(len(m[0])))


def ge(normal: Sequence, rhs) -> Inequality:
    """Build normal.x >= rhs in the internal <= orientation."""
    return Inequality(linalg.neg(linalg.vector(normal)), -rational(rhs))


def normal_rhs(q: Inequality) -> tuple[Vector, Fraction]:
    """(normal, rhs) of normal.x <= rhs, split from ``q.stacked()``: the
    values q was built from."""
    stacked = q.stacked()
    return stacked[:-1], stacked[-1]


def flipped(q: Inequality) -> Inequality:
    """The reverse inequality -normal.x <= -rhs (for equality pairs)."""
    normal, rhs = normal_rhs(q)
    return Inequality(linalg.neg(normal), -rhs)


def fraction_format_le(normal: Vector, rhs: Fraction) -> str:
    """format_le's text computed from the Fractions an inequality was built from."""
    return f"{' '.join(map(str, normal))} <= {rhs}"


def fraction_format_ge(normal: Vector, rhs: Fraction) -> str:
    return f"{' '.join(str(-a) for a in normal)} >= {-rhs}"


def unique_generators(k: GeneratedCone) -> tuple[Vector, ...]:
    """The distinct generator rows, in first-seen order, as Fractions."""
    return tuple(map(linalg.vector, dict.fromkeys(k.int_generators)))


def with_unit_last(k: GeneratedCone) -> tuple[GeneratedCone, bool]:
    """The same cone, with (0, ..., 0, 1) appended when missing."""
    if k.has_unit_last:
        return k, False
    return GeneratedCone(unique_generators(k) + (linalg.unit(k.dim, k.n),)), True


def fii_others(k: GeneratedCone, q: Inequality) -> tuple[Vector, ...]:
    """The rows fii_check's multipliers refer to: the distinct generators,
    then (0, ..., 0, 1) when missing, without q's canonical row."""
    return tuple(g for g in unique_generators(with_unit_last(k)[0])
                 if g != primitive(q.stacked()))


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


_TOKEN = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")


def token_loop_parse_row(text: str, expected_len: int | None = None,
                         line: int = 0) -> tuple[int | Fraction, ...]:
    """linalg.parse_row one token at a time: each blank-separated token is
    matched alone and converted alone, an error raised at the first bad
    one."""
    out = []
    for tok in re.finditer(r"\S+", text):
        if not _TOKEN.match(tok[0]):
            raise ParseError(f"not a rational token: {tok[0]!r}", line, tok.start() + 1)
        try:
            out.append(Fraction(tok[0]) if "/" in tok[0] else int(tok[0]))
        except ValueError:
            raise linalg.number_too_long(line, tok.start() + 1) from None
    if expected_len is not None and len(out) != expected_len:
        raise ParseError(f"expected {expected_len} rational tokens, found {len(out)}", line, 1)
    return tuple(out)


def denominator_int_row(v: Sequence) -> list[int]:
    """linalg.int_row for any row of exact rationals: clear its
    denominators, then divide by the gcd of the entries."""
    return linalg.lowest_terms(linalg.clear_denominators(v)[0])


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
# V-polyhedra, the tests' entry to polyhedron._v_to_h_rows


@dataclass(frozen=True)
class VPolyhedron:
    """conv(vertices) + cone(rays) with Fraction generators; rays are
    primitive, lists are sorted.

    A rays-only description is read as a cone with apex at the origin, so
    the set is empty exactly when both lists are."""

    n: int
    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in self.vertices))
        object.__setattr__(self, "rays", tuple(tuple(r) for r in self.rays))
        for v in self.vertices + self.rays:
            check_dim(v, self.n, "generator")

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.rays


def v_to_h(p: VPolyhedron) -> HPolyhedron:
    """Irredundant canonical H-representation of conv(vertices) + cone(rays),
    by _v_to_h_rows on the polar rows (v, -1) and (r, 0) as integer rows.
    A rays-only description is read as a cone with apex at the origin."""
    vertices = p.vertices
    if not vertices and not p.rays:
        raise ContractViolation("V-representation needs at least one vertex or ray")
    if not vertices:
        vertices = (zeros(p.n),)
    rows = [int_row(v + (-_ONE,)) for v in vertices]
    rows.extend(int_row(r + (_ZERO,)) for r in p.rays)
    return _v_to_h_rows(p.n, rows)


# ---------------------------------------------------------------------------
# V to H with an LP redundancy pass (the reference for v_to_h)


def is_full_dimensional(p: VPolyhedron) -> bool:
    """conv(vertices) + cone(rays) spans R^n: its affine hull is v0 plus
    the span of the other vertices minus v0 and the rays, v0 the first
    vertex (the origin for a rays-only description)."""
    v0, *others = p.vertices or (zeros(p.n),)
    return fraction_rank([sub(v, v0) for v in others] + list(p.rays)) == p.n


def lp_v_to_h(p: VPolyhedron) -> HPolyhedron:
    """For a full-dimensional p, whose polar cone has no line: every
    double-description ray of the polar cone with a nonzero normal as a
    row, pruned by one LP per row."""
    vertices = p.vertices or (zeros(p.n),)
    rows = [v + (-_ONE,) for v in vertices] + [r + (_ZERO,) for r in p.rays]
    _, rays = fraction_io_dd_cone(rows, p.n + 1)
    out = [Inequality(g[:-1], g[-1]) for g in rays if not is_zero(g[:-1])]
    return lp_remove_redundant(HPolyhedron(p.n, sorted_unique(out)))


# ---------------------------------------------------------------------------
# emptiness, dimension and redundancy by LP (the references for
# HPolyhedron.is_empty, polyhedron.dimension and polyhedron.remove_redundant)


def _split(system: Sequence[Inequality]) -> tuple[Matrix, Vector]:
    """The LP data (normals, right-hand sides) of a system."""
    pairs = [normal_rhs(q) for q in system]
    return tuple(a for a, _ in pairs), tuple(b for _, b in pairs)


def lp_is_empty(p: HPolyhedron) -> bool:
    """Infeasibility of the system, by one LP."""
    a, b = _split(p.inequalities)
    return solve_lp(a, b, zeros(p.n), "max").status is LpStatus.INFEASIBLE


def lp_dimension(p: HPolyhedron) -> int:
    """n minus the rank of the implicit equalities, each found by one LP
    (min normal.x reaches rhs); -1 when empty."""
    if lp_is_empty(p):
        return -1
    a, b = _split(p.inequalities)
    tight_rows = []
    for normal, rhs in zip(a, b):
        res = solve_lp(a, b, normal, "min")
        if res.status is LpStatus.OPTIMAL and res.objective == rhs:
            tight_rows.append(normal)
    return p.n - linalg.rank(tight_rows)


def homogenization_dd(p: HPolyhedron):
    """dd_cone of the homogenization {(x, t) : a.x - b.t <= 0, t >= 0}: the
    rows (a, -b), then -t <= 0.  A point x is the ray (x, 1) here, where
    the DD that p keeps reads it as (x, -1)."""
    rows = [(*q.row[:-1], -q.row[-1]) for q in p.inequalities] + [(0,) * p.n + (-1,)]
    return dd_cone(rows, p.n + 1)


def generator_rank_dimension(p: HPolyhedron) -> int:
    """dim p as the rank of the homogenization's DD lines and rays minus
    1, from a DD of its own; -1 when no ray has t > 0."""
    lines, rays = homogenization_dd(p)
    if all(r[-1] <= 0 for r in rays):
        return -1
    return linalg.rank(lines + rays) - 1


def lp_remove_redundant(p: HPolyhedron) -> HPolyhedron:
    """Scan the rows in order and drop each one the survivors and the
    unscanned rows imply, by one LP per row; empty input is unchanged."""
    if lp_is_empty(p):
        return p
    kept = list(p.inequalities)
    i = 0
    while i < len(kept):
        a, b = _split(kept[:i] + kept[i + 1:])
        normal, rhs = normal_rhs(kept[i])
        res = solve_lp(a, b, normal, "max")
        if res.status is LpStatus.OPTIMAL and res.objective <= rhs:
            kept.pop(i)
        else:
            i += 1
    return HPolyhedron(p.n, tuple(kept))


def rank_remove_redundant(p: HPolyhedron) -> HPolyhedron:
    """remove_redundant with the facet test by rank: for a full-dimensional
    p, the last copy of each row with a nonzero normal whose tight
    homogenization generators (every line, the rays g with row.g = 0)
    have rank n; any other p goes to lp_remove_redundant, which drops the
    same rows as the library's scan of flat rows."""
    if lp_dimension(p) < p.n:
        return lp_remove_redundant(p)
    rows = [(*a, -b) for a, b in map(normal_rhs, p.inequalities)] + [zeros(p.n) + (-_ONE,)]
    lines, rays = dd_cone([linalg.int_row(r) for r in rows], p.n + 1)
    last = {q: i for i, q in enumerate(p.inequalities)}

    def is_facet(q: Inequality) -> bool:
        normal, rhs = normal_rhs(q)
        row = linalg.int_row((*normal, -rhs))
        return linalg.rank(lines + tuple(g for g in rays if int_dot(row, g) == 0)) == p.n

    return HPolyhedron(p.n, tuple(
        q for i, q in enumerate(p.inequalities)
        if last[q] == i and not q.is_trivial() and is_facet(q)))


# ---------------------------------------------------------------------------
# containment, point-set equality and the facet test by LP (the references
# for polyhedron.is_subset, polyhedron.same_point_set and
# polyhedron.is_facet_defining)


def lp_is_subset(p: HPolyhedron, q: HPolyhedron) -> bool:
    """p is empty, or check_implication proves every row of q from p's."""
    return lp_is_empty(p) or all(
        check_implication(p.inequalities, t).implied for t in q.inequalities)


def lp_same_point_set(p: HPolyhedron, q: HPolyhedron) -> bool:
    """Mutual implication of every row; two empty polyhedra are equal
    and an empty one equals no other."""
    if p.n != q.n:
        raise ContractViolation("cannot compare polyhedra of different dimension")
    if lp_is_empty(p) or lp_is_empty(q):
        return lp_is_empty(p) and lp_is_empty(q)
    return lp_is_subset(p, q) and lp_is_subset(q, p)


def lp_is_facet_defining(p: HPolyhedron, q: Inequality) -> bool:
    """Validity by check_implication (its violating point otherwise), then
    the face p with q and flipped(q) added has dimension n-1, by
    lp_dimension.  A zero-normal q defines no facet."""
    if q.n != p.n:
        raise ContractViolation("inequality/polyhedron dimension mismatch")
    dim = lp_dimension(p)
    if dim != p.n:
        raise NotFullDimensionalError(
            f"facet test requires a full-dimensional polyhedron (dim {dim} < {p.n})")
    imp = check_implication(p.inequalities, q)
    if not imp.implied:
        raise InvalidInequalityError(
            "inequality is not valid for the polyhedron", witness=imp.witness)
    if q.is_trivial():
        # the face is p or empty; flipped(q) of 0.x <= b > 0 is no inequality
        return False
    face = HPolyhedron(p.n, p.inequalities + (q, flipped(q)))
    return lp_dimension(face) == p.n - 1


# ---------------------------------------------------------------------------
# H to V and projection through it, by a double description of their own


def round_trip_h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Exact V-representation via double description of the homogenization,
    made here rather than read from the DD that p keeps.  Empty input gives
    empty vertex and ray lists; lines come back as opposite ray pairs."""
    if p.n < 1:
        raise ContractViolation("ambient dimension must be at least 1")
    lines, rays = homogenization_dd(p)
    vertices = {tuple(Fraction(a, r[-1]) for a in r[:-1]) for r in rays if r[-1] > 0}
    if not vertices:
        return VPolyhedron(p.n, (), ())
    # a primitive generator with t = 0 is primitive on x alone
    directions = {r[:-1] for r in rays if r[-1] == 0}
    for l in lines:
        directions.update((l[:-1], tuple(-a for a in l[:-1])))
    return VPolyhedron(p.n, tuple(sorted(vertices)),
                       tuple(tuple(map(Fraction, d)) for d in sorted(directions)))


def round_trip_project(p: HPolyhedron, keep: Sequence[int]) -> HPolyhedron:
    """Restrict round_trip_h_to_v's vertices and rays to ``keep``, make
    each ray primitive again, and convert back with v_to_h.  Lines arrive
    as opposite ray pairs; rays that restrict to zero drop out.  An empty
    p gives ``empty_hpolyhedron(len(keep))``."""
    keep = sorted(set(keep))
    if not keep:
        raise ContractViolation("projection needs a nonempty index set")
    if keep[0] < 0 or keep[-1] >= p.n:
        raise ContractViolation(f"projection indices out of range for R^{p.n}")

    v = round_trip_h_to_v(p)
    if v.is_empty:
        return empty_hpolyhedron(len(keep))
    vertices = {tuple(x[j] for j in keep) for x in v.vertices}
    rays = {primitive(tuple(r[j] for j in keep)) for r in v.rays}
    rays.discard(linalg.zeros(len(keep)))
    return v_to_h(VPolyhedron(len(keep), tuple(sorted(vertices)), tuple(sorted(rays))))


def project_instance(q: CoveringInstance, t: int) -> CoveringInstance:
    """The orthogonal projection of a covering instance onto its first t
    coordinates.  A row supported inside the first t coordinates survives
    with its demand; any other row is absorbed by sending the dropped
    coordinates to infinity and becomes trivial.  For a single row, the
    closure (the integer hull) of the projection is the projection of the
    closure, which round_trip_project computes."""
    if not 1 <= t < q.n:
        raise ContractViolation(f"t must satisfy 1 <= t < {q.n}, got {t}")
    rows = []
    demand = []
    for row, di in zip(q.M, q.d):
        if all(row[j] == 0 for j in range(t, q.n)):
            rows.append(row[:t])
            demand.append(di)
        else:
            rows.append(zeros(t))
            demand.append(_ZERO)
    return CoveringInstance(tuple(rows), tuple(demand))


def projection_lemma_sides(q: CoveringInstance, t: int) -> tuple[HPolyhedron, HPolyhedron]:
    """For a single-row q, whose k = 1 closure at density 1 is its integer
    hull: that closure projected onto x1..xt by round_trip_project, and
    the closure of project_instance(q, t).  The lemma says they are equal."""
    projected = round_trip_project(closure_approx(q, 1, 1).polyhedron, range(t))
    return projected, closure_approx(project_instance(q, t), 1, 1).polyhedron


# ---------------------------------------------------------------------------
# implication by three solves (the reference for polyhedron.check_implication)


def three_solve_implication(system: Sequence[Inequality], target: Inequality) -> Implication:
    """A feasibility LP, cone membership of target.stacked() in the cone of
    the stacked rows plus (0, ..., 0, 1), and, when not a member, the LP
    max a.x for the target a.x <= b, for a violating point (stepped along
    the improving ray from the feasibility LP's point when unbounded)."""
    system = tuple(system)
    n = target.n
    a, b = _split(system)
    feas = solve_lp(a, b, zeros(n), "max")
    if feas.status is LpStatus.INFEASIBLE:
        raise InconsistentSystemError(
            "implication requires a consistent system", certificate=feas.certificate)

    unit_last = zeros(n) + (_ONE,)
    member = lp.cone_membership([q.stacked() for q in system] + [unit_last], target.stacked())
    if member.member:
        mult = member.multipliers
        return Implication(True, multipliers=mult[:-1], slack=mult[-1])

    normal, rhs = normal_rhs(target)
    res = solve_lp(a, b, normal, "max")
    if res.status is LpStatus.OPTIMAL:
        witness = res.x
    else:
        gain = dot(normal, res.certificate)
        step = max(_ZERO, (rhs - dot(normal, feas.x)) / gain) + 1
        witness = add(feas.x, scale(step, res.certificate))
    if target.satisfied_by(witness) or not all(q.satisfied_by(witness) for q in system):
        raise InternalInvariantError("witness fails substitution check")
    return Implication(False, witness=witness)


# ---------------------------------------------------------------------------
# cut attribution by LP (the reference for aggregation.classify_cuts)


def lp_classify_cuts(ca: ClosureApprox) -> tuple[CutClass, ...]:
    """Attribute each non-sign closure facet to the first sampled hull
    that implies it and for which it is facet-defining, both by LP."""
    out = []
    for facet in ca.polyhedron.inequalities:
        if _is_sign_constraint(facet):
            out.append(CutClass(facet, SIGN))
            continue
        attributed = None
        for h in ca.hulls:
            if not check_implication(h.hull.inequalities, facet).implied:
                continue
            if lp_is_facet_defining(h.hull, facet):
                attributed = h.sample
                break
        if attributed is not None:
            out.append(CutClass(facet, HULL_FACET, sample=attributed))
        else:
            out.append(CutClass(facet, UNATTRIBUTED))
    return tuple(out)


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
            lines = [_line_canonical(sub(l, scale(vals[j] / dstar, star)))
                     for j, l in enumerate(lines) if j != hit]
            new_rays = [primitive(sub(r, scale(dot(row, r) / dstar, star)))
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
                w = primitive(sub(scale(vp, rn), scale(vn, rp)))
                if not is_zero(w):
                    candidates.append(w)
        target = dim - len(lines) - 1
        rays = [r for r in dict.fromkeys(candidates)
                if fraction_rank([q for q in processed if dot(q, r) == 0]) == target]
    return tuple(sorted(lines)), tuple(sorted(rays))


def dd_cone_dropping_a_ray(rows: Sequence[Sequence[int]], dim: int):
    """A broken polyhedron.dd_cone, for mutation tests: the same integer
    double description, except that at dim = 4 every row step drops the
    first ray it makes from an adjacent (negative, positive) pair.  It
    gets the dimension of many n = 3 closures wrong, so a check that
    cannot tell it from dd_cone does not check the DD."""
    lines = [[int(i == j) for i in range(dim)] for j in range(dim)]
    rays: list[list[int]] = []
    zs: list[int] = []
    bit = 1
    for row in rows:
        if not any(row):
            continue
        vals = [int_dot(row, l) for l in lines]
        hit = next((j for j in range(len(lines)) if vals[j]), None)
        if hit is not None:
            d = abs(vals[hit])
            star = lines[hit] if vals[hit] < 0 else [-a for a in lines[hit]]
            lines = [polyhedron._line_canonical(combine(d, l, -vals[j], star))
                     for j, l in enumerate(lines) if j != hit]
            rays = [combine(d, r, -int_dot(row, r), star) for r in rays] + [star]
            zs = [z | bit for z in zs] + [bit - 1]
        else:
            signs = [(i, int_dot(row, r)) for i, r in enumerate(rays)]
            zero = [(i, v) for i, v in signs if v == 0]
            posi = [(i, v) for i, v in signs if v > 0]
            negi = [(i, v) for i, v in signs if v < 0]
            need = dim - len(lines) - 2
            new_rays = [rays[i] for i, _ in zero + negi]
            new_zs = [zs[i] | bit for i, _ in zero] + [zs[i] for i, _ in negi]
            dropped = dim != 4
            for i, vn in negi:
                for j, vp in posi:
                    common = zs[i] & zs[j]
                    if common.bit_count() < need or any(
                            z & common == common for t, z in enumerate(zs) if t not in (i, j)):
                        continue
                    if not dropped:
                        dropped = True
                        continue
                    new_rays.append(combine(vp, rays[i], vn, rays[j]))
                    new_zs.append(common | bit)
            rays, zs = new_rays, new_zs
        bit <<= 1
    return tuple(map(tuple, sorted(lines))), tuple(map(tuple, sorted(rays)))


# ---------------------------------------------------------------------------
# Fraction simplex (the reference for lp._simplex_standard), and cone
# membership and solve_lp on Fraction rows (the references for
# lp.cone_membership and lp.solve_lp)


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
        if dot(u, rhs) <= 0 or any(q > 0 for q in vec_mat(u, rows)):
            raise InternalInvariantError("Farkas vector fails substitution check")
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


def fraction_cone_membership(generators: Sequence[Vector], target: Vector) -> ConeMembership:
    """lp.cone_membership on the caller's Fraction data: the Fraction
    simplex on the generators transposed into its rows, the target its
    right-hand side, and both answers checked by substitution in Fractions."""
    d = len(target)
    for g in generators:
        check_dim(g, d, "generator")
    if not generators:
        if is_zero(target):
            return ConeMembership(True, multipliers=())
        return ConeMembership(False, separator=primitive(target))

    outcome = simplex_standard(transpose(generators), target, zeros(len(generators)))
    if outcome[0] == "optimal":
        mult = outcome[1]
        if any(q < 0 for q in mult) or vec_mat(mult, generators) != tuple(target):
            raise InternalInvariantError("membership multipliers fail substitution")
        return ConeMembership(True, multipliers=mult)
    h = primitive(outcome[1])
    if dot(h, target) <= 0 or any(dot(h, g) > 0 for g in generators):
        raise InternalInvariantError("separating vector fails substitution")
    return ConeMembership(False, separator=h)


def lp_extreme_rays(k: GeneratedCone) -> tuple[tuple[int, ...], ...]:
    """The extreme rays of cone(generators) by LP, as cone.extreme_rays
    decided them before it read the polar cone's DD: the line search
    decides pointedness, and a generator is extreme when it is no member
    of the cone of the others."""
    rows = k._rows
    line = _line_through(rows)
    if line is not None:
        raise NotPointedError(
            "extreme rays are only defined for pointed cones", line_witness=line)
    return tuple(sorted(g for i, g in enumerate(rows)
                        if not lp.cone_membership(rows[:i] + rows[i + 1:], g).member))


def integer_rows(rows: Matrix, rhs: Vector) -> list[list[int]]:
    """lp._simplex_standard's input for rows.z = rhs: each row (row, 1,
    rhs) as a primitive integer row (r, w, h)."""
    return [int_row([*row, 1, h]) for row, h in zip(rows, rhs)]


def rational_rows(rows: Sequence[Sequence[int]]) -> tuple[Matrix, Vector]:
    """The inverse of integer_rows: the rational rows r / w and right-hand
    sides h / w that the integer rows (r, w, h) stand for."""
    return (tuple(tuple(Fraction(a, r[-2]) for a in r[:-2]) for r in rows),
            tuple(Fraction(r[-1], r[-2]) for r in rows))


@contextmanager
def fraction_simplex():
    """Within the block, closurelab.lp (solve_lp, cone_membership) runs on
    the Fraction reference simplex above, given the rational rows."""
    def run(rows, costs):
        return simplex_standard(*rational_rows(rows), costs)

    with mock.patch.object(lp, "_simplex_standard", run):
        yield


def fraction_solve_lp(a: Matrix, b: Vector, c: Vector, sense: str = "max") -> LpResult:
    """lp.solve_lp as it ran on Fractions: the Fraction simplex on the
    standard form (a_i, -a_i, e_i) = b_i and the certificates checked by
    substitution in Fractions against the caller's data."""
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

    outcome = simplex_standard(rows, b, costs)
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
    if (any(q < 0 for q in y) or ya != tuple(obj) or dot(y, b) != dot(obj, x)
            or any(ax > bi for ax, bi in zip(mat_vec(a, x), b))):
        raise InternalInvariantError("optimality certificate fails substitution")
    return LpResult(LpStatus.OPTIMAL, x=x, certificate=y, objective=dot(c, x))


# ---------------------------------------------------------------------------
# the Fraction hull pipeline (the reference for the integer rows that
# aggregation, covering and v_to_h carry from the instance to the facets)


def fraction_io_dd_cone(rows: Sequence[Vector], dim: int):
    """polyhedron.dd_cone with rational rows in and Fraction generators out."""
    lines, rays = dd_cone([linalg.int_row(r) for r in rows], dim)
    return (tuple(tuple(map(Fraction, g)) for g in lines),
            tuple(tuple(map(Fraction, g)) for g in rays))


def fraction_aggregate(q: CoveringInstance, sample: AggregationSample) -> CoveringInstance:
    """Each row lambda^j M >= lambda^j d computed in Fractions, then made
    primitive."""
    rows, demand = [], []
    for lam in sample.multipliers:
        linalg.check_dim(lam, q.m, "multiplier row")
        stacked = primitive(vec_mat(lam, q.M) + (dot(lam, q.d),))
        rows.append(stacked[:-1])
        demand.append(stacked[-1])
    return CoveringInstance(tuple(rows), tuple(demand))


def fraction_minimal_point_set(points) -> tuple[Vector, ...]:
    """MinimalPointSet's checks on Fraction points: the sorted points, or
    ContractViolation for the first bad point or comparable pair."""
    pts = tuple(sorted(linalg.vector(p) for p in points))
    for p in pts:
        if any(a.denominator != 1 or a < 0 for a in p):
            raise ContractViolation(f"minimal points live in N^n, got {p}")
    for i, low in enumerate(pts):
        for high in pts[i + 1:]:
            if all(map(le, low, high)):
                raise ContractViolation(f"not an antichain: {low} and {high} are comparable")
    return pts


def fraction_minimal_points(q: CoveringInstance) -> tuple[Vector, ...]:
    """The minimal feasible points by enumerating the box
    0 <= x_j <= max_i ceil(d_i / M_ij) in Fractions.  The feasible set is
    upward closed, so a feasible point is minimal exactly when no unit
    step down from it is feasible."""
    box = [max((ceil(di / row[j]) for row, di in zip(q.M, q.d) if row[j] > 0), default=0)
           for j in range(q.n)]
    feasible = {x for x in map(linalg.vector, product(*(range(b + 1) for b in box)))
                if all(dot(row, x) >= di for row, di in zip(q.M, q.d))}
    return tuple(sorted(
        x for x in feasible
        if not any(x[j] and sub(x, linalg.unit(q.n, j)) in feasible
                   for j in range(q.n))))


def fraction_v_to_h(p: VPolyhedron) -> HPolyhedron:
    """V to H on Fraction generators: every DD ray whose normal is outside
    the span of the line normals is a facet (a rank test even with no
    lines), each line an equality pair, sorted by canonical form."""
    vertices = p.vertices or (zeros(p.n),)
    rows = [v + (-_ONE,) for v in vertices] + [r + (_ZERO,) for r in p.rays]
    lines, rays = fraction_io_dd_cone(rows, p.n + 1)
    line_normals = [g[:-1] for g in lines]
    out = [Inequality(g[:-1], g[-1]) for g in rays
           if fraction_rank(line_normals + [g[:-1]]) > len(lines)]
    for g in lines:
        q = Inequality(g[:-1], g[-1])
        out.extend((q, flipped(q)))
    return HPolyhedron(p.n, tuple(sorted(out, key=lambda q: q.row)))


def unfiltered_hull(points: Sequence[Sequence[int]]) -> HPolyhedron:
    """conv(points) + R^n_+ from every point: the rows (p, -1) of all the
    points, then the unit rays (e_j, 0), through _v_to_h_rows, with no
    lower-chain filter."""
    n = len(points[0])
    rows = [tuple(p) + (-1,) for p in points]
    rows.extend(tuple(int(i == j) for i in range(n + 1)) for j in range(n))
    return _v_to_h_rows(n, rows)


def fraction_integer_hull(q: CoveringInstance) -> HPolyhedron:
    points = fraction_minimal_point_set(fraction_minimal_points(q))
    rays = tuple(linalg.unit(q.n, j) for j in range(q.n))
    return fraction_v_to_h(VPolyhedron(q.n, points, rays))


def fraction_sorted_unique(ineqs) -> tuple[Inequality, ...]:
    """A new canonical Inequality per distinct row, sorted."""
    seen = {}
    for q in ineqs:
        v = primitive(q.stacked())
        seen.setdefault(v, Inequality(v[:-1], v[-1]))
    return tuple(seen[k] for k in sorted(seen))


def fraction_closure_approx(q: CoveringInstance, k: int, density: int) -> ClosureApprox:
    """closure_approx on the Fraction pipeline above; the intersection is
    pruned by polyhedron.remove_redundant, as in the library (that function
    has its own LP reference, lp_remove_redundant)."""
    built: dict[CoveringInstance, HPolyhedron] = {}

    def hulls_for(d):
        out = []
        for sample in sample_multipliers(q.m, k, d):
            agg = fraction_aggregate(q, sample)
            if agg not in built:
                built[agg] = fraction_integer_hull(agg)
            out.append(AggregatedHull(sample, built[agg]))
        return out

    def intersect(hulls):
        pool = [row for h in hulls for row in h.hull.inequalities]
        return remove_redundant(HPolyhedron(q.n, fraction_sorted_unique(pool)))

    hulls = hulls_for(density)
    poly = intersect(hulls)
    doubled = intersect(hulls_for(2 * density))
    return ClosureApprox(polyhedron=poly, hulls=tuple(hulls),
                         samples=sample_multipliers(q.m, k, density), stabilized=poly == doubled)


def doubling_stabilized(q: CoveringInstance, k: int, density: int) -> bool:
    """closure_approx's ``stabilized`` by the density-doubling pass alone:
    the density-D and density-2D intersections compared as facet lists."""
    built: dict = {}
    hulls: dict = {}

    def intersect(d):
        return _intersect(q.n, _hulls_for(q, sample_multipliers(q.m, k, d), built, hulls))

    return intersect(density) == intersect(2 * density)


def full_closure_approx(q: CoveringInstance, k: int, density: int) -> ClosureApprox:
    """closure_approx before it stopped early: every density-D hull is
    built and intersected, the intersection compared with P_I, and the
    density-2D hulls built only when the two differ."""
    if k < 1 or density < 1:
        raise ContractViolation("k and density must be at least 1")
    built: dict = {}
    by_points: dict = {}
    samples = sample_multipliers(q.m, k, density)
    hulls = list(_hulls_for(q, samples, built, by_points))
    poly = _intersect(q.n, hulls)
    # P_I: a density-D sample holding every unit row (k >= m) has exactly
    # q's integer points, so its hull is P_I; otherwise q's own rows, the
    # unit multipliers in grid order, are aggregated and hulled
    units = multiplier_rows(q.m, 1)
    own = next((h for h in hulls if set(units).issubset(h.sample.multipliers)), None)
    if own is None:
        [own] = _hulls_for(q, [AggregationSample(units)], built, by_points)
    stabilized = poly == own.hull or poly == _intersect(
        q.n, _hulls_for(q, sample_multipliers(q.m, k, 2 * density), built, by_points))
    return ClosureApprox(polyhedron=poly, hulls=tuple(hulls), samples=samples,
                         stabilized=stabilized)
