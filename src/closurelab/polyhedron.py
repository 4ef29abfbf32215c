"""Exact polyhedra: half-space and generator descriptions and the
conversions, reductions, and queries connecting them.

An ``Inequality`` is a pair (normal, rhs) read as normal.x <= rhs; two
inequalities are the same exactly when their coprime-integer canonical
forms coincide, which identifies them up to positive scaling without
ever leaving the rationals.  ``HPolyhedron`` is a finite intersection of
half-spaces, ``VPolyhedron`` is conv(vertices) + cone(rays); conversion
both ways runs the double description method on the homogenization,
entirely in exact arithmetic.  Empty polyhedra are ordinary values.

``dd_cone`` takes and returns primitive integer rows, and an
``Inequality`` stores one: its primitive row, plus the positive scale
that gives back the values it was built from (1 for every row the
library makes).  Identity, hashing and sorting read the row; ``normal``,
``rhs`` and ``stacked()`` are Fraction views made on read, so a facet
that ``v_to_h`` reads off a DD row makes no Fraction until it is used.

Each ``HPolyhedron`` keeps one double description (DD) of its
homogenization, built on the first query that needs it.  It gives the
polyhedron's emptiness, dimension and vertices, and the facets of a
full-dimensional one.  It holds each homogenized row's zero set,
computed once, and the dimension: n minus the rank of the rows tight at
every ray, the implicit equalities, a list that is usually empty.  The
facets are read from the same zero sets with no rank.  Projection
restricts those vertices and rays to the kept coordinates and converts
back with ``v_to_h``, so it needs no algorithm of its own.  The same
generators decide containment (``is_subset``, ``same_point_set``,
validity, the flat redundancy scan); an LP remains only where a
certificate is returned (``check_implication``, on the int rows).

A full-dimensional polyhedron has one irredundant system up to positive
scaling of rows: its facets (Schrijver 1986, section 8.4).  So for such
polyhedra, irredundant systems in ``sorted_unique`` order (which
``remove_redundant`` keeps) describe the same set exactly when they are
equal, and a valid inequality is facet-defining exactly when it is a row
(``is_facet_defining``); otherwise compare with ``same_point_set``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    ContractViolation,
    InconsistentSystemError,
    InternalInvariantError,
    InvalidInequalityError,
    NotFullDimensionalError,
    ParseError,
)
from . import linalg
from .linalg import (IntRow, Vector, combine, dot, format_rational, format_vector,
                     int_dot, primitive, rational)
from .lp import LpStatus, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, init=False, repr=False)
class Inequality:
    """normal.x <= rhs, stored as its primitive integer row and the
    positive scale with scale * row == (normal, rhs) as given.

    Identity (== and hashing) is by the row, so positive rescalings of one
    another compare equal.  ``normal``, ``rhs`` and ``stacked()`` are
    Fraction views made on read.  A zero normal is only legal with a
    nonnegative right-hand side: 0.x <= b for b < 0 is not an inequality
    but an inconsistency marker, and callers must represent emptiness with
    a genuine inconsistent system instead.
    """

    row: tuple[int, ...]
    scale: Fraction = field(compare=False)

    def __init__(self, normal: Iterable, rhs):
        v = linalg.vector(normal) + (rational(rhs),)
        if linalg.is_zero(v[:-1]) and v[-1] < 0:
            raise ContractViolation(f"zero normal requires nonnegative rhs, got {v[-1]}")
        ints, common = linalg.clear_denominators(v)
        # common is the lcm of the denominators, so g / common is in lowest
        # terms and is 1 only for a primitive integer input
        g = reduce(gcd, ints, 0) or 1
        object.__setattr__(self, "row", tuple(a // g for a in ints))
        object.__setattr__(self, "scale", _ONE if g == common else Fraction(g, common))

    @property
    def n(self) -> int:
        return len(self.row) - 1

    def stacked(self) -> Vector:
        """The (normal, rhs) vector in Q^(n+1)."""
        if self.scale == 1:
            return tuple(map(Fraction, self.row))
        return tuple(self.scale * a for a in self.row)

    @property
    def normal(self) -> Vector:
        return self.stacked()[:-1]

    @property
    def rhs(self) -> Fraction:
        return self.scale * self.row[-1]

    def canonical(self) -> "Inequality":
        """The inequality scaled to its canonical form; itself when it
        already is."""
        return self if self.scale == 1 else _from_row(self.row)

    def satisfied_by(self, x: Vector) -> bool:
        return dot(self.row[:-1], x) <= self.row[-1]

    def is_trivial(self) -> bool:
        return not any(self.row[:-1])

    def __repr__(self):
        return f"Inequality({format_le(self)!r})"


@dataclass(frozen=True)
class HPolyhedron:
    """Intersection of half-spaces in R^n; may be empty or unbounded."""

    n: int
    inequalities: tuple[Inequality, ...]

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        for ineq in self.inequalities:
            if ineq.n != self.n:
                raise ContractViolation(
                    f"inequality in R^{ineq.n} inside polyhedron in R^{self.n}")

    def contains(self, x: Vector) -> bool:
        linalg.check_dim(x, self.n, "point")
        return all(q.satisfied_by(x) for q in self.inequalities)

    @property
    def is_empty(self) -> bool:
        """True when no ray of the homogenization has t > 0."""
        return self._dd.dim < 0

    @cached_property
    def _dd(self) -> _HomogenizedDD:
        """dd_cone of the homogenization C = {(x, t) : normal.x - rhs.t <= 0,
        t >= 0}, each homogenized row's zero set, and the dimension of p
        (this polyhedron); built on the first query and kept with p,
        outside ==, hash and repr.  The row -t <= 0 forces t = 0 on every
        line, so p is empty (dimension -1) exactly when no ray has t > 0.
        Otherwise C is the closed cone over p x {1}, so a row is tight on
        all of C, that is at every ray (every line is tight at every row),
        exactly when it is an implicit equality of p, and dim p = n -
        rank(implicit equalities) (Schrijver 1986, section 8.2).  That
        rank is taken on the rows (normal, -rhs): the equalities hold on
        p, so the right-hand sides add no rank."""
        rows = [_homogenized_row(q) for q in self.inequalities]
        rows.append(_t_row(self.n))
        lines, rays = dd_cone(rows, self.n + 1)
        if any(l[-1] != 0 for l in lines):
            raise InternalInvariantError("homogenization admits a line with t != 0")
        zero_sets = tuple(_zero_set(r, rays) for r in rows)
        if all(r[-1] <= 0 for r in rays):
            return _HomogenizedDD(lines, rays, zero_sets, -1)
        every = (1 << len(rays)) - 1
        equalities = [r for r, z in zip(rows, zero_sets) if z == every]
        return _HomogenizedDD(lines, rays, zero_sets, self.n - linalg.rank(equalities))


@dataclass(frozen=True)
class VPolyhedron:
    """conv(vertices) + cone(rays); rays are primitive, lists are sorted.

    A rays-only description is read as a cone with apex at the origin, so
    the set is empty exactly when both lists are."""

    n: int
    vertices: tuple[Vector, ...]
    rays: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(tuple(v) for v in self.vertices))
        object.__setattr__(self, "rays", tuple(tuple(r) for r in self.rays))
        for v in self.vertices + self.rays:
            linalg.check_dim(v, self.n, "generator")

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.rays


def _from_row(row: tuple[int, ...]) -> Inequality:
    """row[:-1].x <= row[-1] for a primitive integer row with a nonzero
    normal, which is its own canonical form; no Fraction is made."""
    q = object.__new__(Inequality)
    object.__setattr__(q, "row", row)
    object.__setattr__(q, "scale", _ONE)
    return q


ineq = Inequality  # the short name the tests and docs use


def ge(normal: Iterable, rhs) -> Inequality:
    """Build normal.x >= rhs in the internal <= orientation."""
    return Inequality(linalg.neg(linalg.vector(normal)), -rational(rhs))


def sorted_unique(ineqs: Iterable[Inequality]) -> tuple[Inequality, ...]:
    """Canonical forms, deduplicated, lexicographically sorted."""
    seen = {}
    for q in ineqs:
        seen.setdefault(q.row, q)
    return tuple(seen[k].canonical() for k in sorted(seen))


# ---------------------------------------------------------------------------
# double description on cones {y : row . y <= 0}


def _line_canonical(v: IntRow) -> IntRow:
    """The primitive row v with its first nonzero entry made positive
    (lines carry no orientation)."""
    lead = next((a for a in v if a), 0)
    return [-a for a in v] if lead < 0 else v


IntRows = tuple[tuple[int, ...], ...]


def dd_cone(rows: Sequence[Sequence[int]], dim: int) -> tuple[IntRows, IntRows]:
    """Minimal generators (lines, rays) of {y in R^dim : r.y <= 0 for all r}.

    Incremental double description: start from all of R^dim as a lineality
    basis and fold the nonzero rows in one at a time.  Each ray keeps its
    zero set as an int bitmask: bit k is set when the ray is tight at the
    k-th nonzero row.  A row that hits a line turns that line into a ray
    and projects the other rays onto the row's hyperplane.  Otherwise the
    rays on the row's feasible side stay, and a (negative, positive) pair
    makes a new ray exactly when the two are adjacent, decided from zero
    sets alone (Fukuda & Prodon 1996, Prop. 7): their common zero set has
    at least dim - #lines - 2 rows, and no other ray's zero set contains
    it.  The containment test needs the ray list to be exactly the
    extreme rays, one per class modulo the lineality space; each step
    keeps that invariant, so no ray is repeated and no rank is taken.
    Rows come in, and lines and rays go out, as primitive integer rows, in
    lexicographic order; callers convert at their own boundary.
    """
    lines: list[IntRow] = [[int(i == j) for i in range(dim)] for j in range(dim)]
    rays: list[IntRow] = []
    zs: list[int] = []  # zs[i]: the zero set of rays[i]
    bit = 1

    for row in rows:
        if not any(row):
            continue
        vals = [int_dot(row, l) for l in lines]
        hit = next((j for j in range(len(lines)) if vals[j]), None)
        if hit is not None:
            # star: the hit line oriented so that row.star = -d < 0; it is
            # tight at every earlier row, and every projected ray at this one
            d = abs(vals[hit])
            star = lines[hit] if vals[hit] < 0 else [-a for a in lines[hit]]
            lines = [_line_canonical(combine(d, l, -vals[j], star))
                     for j, l in enumerate(lines) if j != hit]
            rays = [combine(d, r, -int_dot(row, r), star) for r in rays] + [star]
            zs = [z | bit for z in zs] + [bit - 1]
        else:
            zero, posi, negi = [], [], []
            for i, r in enumerate(rays):
                v = int_dot(row, r)
                (zero if v == 0 else posi if v > 0 else negi).append((i, v))
            need = dim - len(lines) - 2
            new_rays = [rays[i] for i, _ in zero + negi]
            new_zs = [zs[i] | bit for i, _ in zero] + [zs[i] for i, _ in negi]
            for i, vn in negi:
                for j, vp in posi:
                    # a positive combination is tight exactly where both are
                    common = zs[i] & zs[j]
                    if common.bit_count() < need or any(
                            z & common == common for t, z in enumerate(zs) if t != i and t != j):
                        continue
                    new_rays.append(combine(vp, rays[i], vn, rays[j]))
                    new_zs.append(common | bit)
            rays, zs = new_rays, new_zs
        bit <<= 1

    return tuple(map(tuple, sorted(lines))), tuple(map(tuple, sorted(rays)))


# ---------------------------------------------------------------------------
# conversions


class _HomogenizedDD(NamedTuple):
    lines: IntRows
    rays: IntRows
    # per homogenized row (p's rows in order, then -t <= 0): the rays it is tight at
    zero_sets: tuple[int, ...]
    dim: int


def _t_row(n: int) -> tuple[int, ...]:
    """The homogenization's row -t <= 0."""
    return (0,) * n + (-1,)


def _homogenized_row(q: Inequality) -> tuple[int, ...]:
    """The primitive integer row (normal, -rhs)."""
    *normal, rhs = q.row
    return (*normal, -rhs)


def h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Exact V-representation via double description of the homogenization.
    Empty input gives empty vertex and ray lists; lines come back as
    opposite ray pairs."""
    if p.n < 1:
        raise ContractViolation("ambient dimension must be at least 1")
    lines, rays, _, _ = p._dd
    vertices = {tuple(Fraction(a, r[-1]) for a in r[:-1]) for r in rays if r[-1] > 0}
    if not vertices:
        return VPolyhedron(p.n, (), ())
    # a primitive generator with t = 0 is primitive on x alone
    directions = {r[:-1] for r in rays if r[-1] == 0}
    for l in lines:
        directions.update((l[:-1], tuple(-a for a in l[:-1])))
    return VPolyhedron(p.n, tuple(sorted(vertices)),
                       tuple(tuple(map(Fraction, d)) for d in sorted(directions)))


def v_to_h(p: VPolyhedron) -> HPolyhedron:
    """Irredundant canonical H-representation of conv(vertices) + cone(rays).

    A rays-only description is read as a cone with apex at the origin.
    Implicit equalities of flat polyhedra come out as inequality pairs.

    No LP is needed.  The DD lines of the polar cone {(a, b) : a.v <= b,
    a.r <= 0} are the equalities, with independent normals.  A DD ray whose
    normal lies in their span is (0, b > 0) plus a line, implied by the
    equality pairs; every other ray is a facet.  With no lines, as for a
    full-dimensional P, only the rays with a zero normal are skipped.
    """
    vertices = p.vertices
    if not vertices and not p.rays:
        raise ContractViolation("V-representation needs at least one vertex or ray")
    if not vertices:
        vertices = (linalg.zeros(p.n),)
    rows = [linalg.int_row(v + (-_ONE,)) for v in vertices]
    rows.extend(linalg.int_row(r + (_ZERO,)) for r in p.rays)
    return _v_to_h_rows(p.n, rows)


def _v_to_h_rows(n: int, rows: Sequence[Sequence[int]]) -> HPolyhedron:
    """v_to_h given the polar cone's rows: (v, -1) for each vertex and
    (r, 0) for each ray, as integer rows."""
    lines, rays = dd_cone(rows, n + 1)
    if lines:
        normals = [g[:-1] for g in lines]
        rays = [g for g in rays if linalg.rank(normals + [g[:-1]]) > len(lines)]
    else:
        rays = [g for g in rays if any(g[:-1])]
    out = [*rays, *lines, *(tuple(-a for a in g) for g in lines)]
    # Every DD generator is a primitive integer row, so each row is its
    # facet's canonical form; dd_cone repeats no ray, and a ray that is
    # +-a line lies in the lines' span and was skipped above.
    return HPolyhedron(n, tuple(map(_from_row, sorted(out))))


# ---------------------------------------------------------------------------
# reductions and queries


def _zero_set(row: Sequence[int], rays: IntRows) -> int:
    """The rays row is tight at, as a bitmask: bit k for rays[k]."""
    return sum(1 << k for k, g in enumerate(rays) if int_dot(row, g) == 0)


def _holds(lines: IntRows, rays: IntRows, row: Sequence[int]) -> bool:
    """Does a.x <= b, as the row (a, -b), hold on a nonempty P given by the
    DD of its homogenization?  That is the closed cone over P x {1}."""
    return all(int_dot(row, g) <= 0 for g in rays) and not any(int_dot(row, l) for l in lines)


def remove_redundant(p: HPolyhedron) -> HPolyhedron:
    """Minimal sub-list defining the same set, in input order; an
    inconsistent input is returned unchanged.

    A full-dimensional p keeps the last copy of each facet, read off the
    zero sets kept with the DD of its homogenization C, with no rank.
    Each homogenized row, and the row -t <= 0, has a zero set: the rays
    of C it is tight at (every line is tight at every row).  C is
    full-dimensional, so a row tight at every ray is zero (0.x <= 0) and
    cuts no face; any other row cuts the proper face spanned by the lines
    and its zero set.  The facets are the maximal proper faces, and every
    facet is cut by some row, so a row with a nonzero normal is a facet
    exactly when no other row's zero set strictly contains its own, rows
    tight at every ray left out.  A flat p has no unique irredundant
    system: each row in turn is dropped if it holds on the others (a
    nonempty superset of p), read from a throwaway DD.  When no row is
    dropped the answer is p itself, which keeps its DD."""
    _, rays, (*zs, t_face), dim = p._dd
    if dim < 0:
        return p
    if dim == p.n:
        every = (1 << len(rays)) - 1
        faces = {z for z in zs if z != every} | {t_face}
        facets = {z for z in faces if not any(z != f and z & f == z for f in faces)}
        last = {q: i for i, q in enumerate(p.inequalities)}
        kept = [q for i, (q, z) in enumerate(zip(p.inequalities, zs))
                if last[q] == i and not q.is_trivial() and z in facets]
    else:
        kept = list(p.inequalities)
        i = 0
        while i < len(kept):
            others = [_homogenized_row(q) for q in kept[:i] + kept[i + 1:]]
            if _holds(*dd_cone(others + [_t_row(p.n)], p.n + 1), _homogenized_row(kept[i])):
                kept.pop(i)
            else:
                i += 1
    return p if len(kept) == len(p.inequalities) else HPolyhedron(p.n, tuple(kept))


def is_subset(p: HPolyhedron, q: HPolyhedron) -> bool:
    """p lies in q: every row of q holds over p's DD (an empty p lies in all)."""
    if p.n != q.n:
        raise ContractViolation("cannot compare polyhedra of different dimension")
    lines, rays, _, dim = p._dd
    return dim < 0 or all(_holds(lines, rays, _homogenized_row(t)) for t in q.inequalities)


@dataclass(frozen=True)
class Implication:
    """check_implication outcome: exact multipliers over the system plus a
    slack coefficient on 0.x <= 1 when implied, a violating point when not."""

    implied: bool
    multipliers: Vector | None = None
    slack: Fraction | None = None
    witness: Vector | None = None


def check_implication(system: Sequence[Inequality], target: Inequality) -> Implication:
    """Does the system of inequalities force target?  Decided by one LP,
    max target.normal over the system, exact either way.  An optimum at
    most rhs is implied: the LP's optimal duals are the multipliers and
    slack = rhs - optimum.  An optimum above rhs is the violating point;
    on an unbounded LP a feasible point (one more LP) stepped along the
    improving ray is.  The system must be consistent (otherwise
    InconsistentSystemError carries the LP's Farkas certificate).  The LP
    reads each row, or ``stacked()`` when the scale is not 1: the values
    the inequality was built from, which the multipliers refer to."""
    system = tuple(system)
    n = target.n
    for q in system:
        if q.n != n:
            raise ContractViolation("system/target dimension mismatch")
    *rows, (*c, d) = (q.row if q.scale == 1 else q.stacked() for q in (*system, target))
    a = tuple(r[:-1] for r in rows)
    b = tuple(r[-1] for r in rows)
    res = solve_lp(a, b, c, "max")
    if res.status is LpStatus.INFEASIBLE:
        raise InconsistentSystemError(
            "implication requires a consistent system", certificate=res.certificate)
    if res.status is LpStatus.OPTIMAL and res.objective <= d:
        return Implication(True, multipliers=res.certificate, slack=d - res.objective)

    if res.status is LpStatus.OPTIMAL:
        witness = res.x
    else:
        x0 = solve_lp(a, b, (0,) * n, "max").x
        ray = res.certificate
        step = max(_ZERO, (d - dot(c, x0)) / dot(c, ray)) + 1
        witness = tuple(x + step * r for x, r in zip(x0, ray))
    if target.satisfied_by(witness) or not all(q.satisfied_by(witness) for q in system):
        raise InternalInvariantError("witness fails substitution check")
    return Implication(False, witness=witness)


def dimension(p: HPolyhedron) -> int:
    """Affine dimension, or -1 for the empty polyhedron: n minus the rank
    of the implicit equalities, the rows tight at every ray of p's DD,
    taken once with it."""
    return p._dd.dim


def is_facet_defining(p: HPolyhedron, q: Inequality) -> bool:
    """True when the face p intersect {normal.x = rhs} has dimension n-1.
    Requires p full-dimensional (its facets are the rows remove_redundant
    keeps) and q valid for p (else check_implication's violating point)."""
    if q.n != p.n:
        raise ContractViolation("inequality/polyhedron dimension mismatch")
    if dimension(p) != p.n:
        raise NotFullDimensionalError(
            f"facet test requires a full-dimensional polyhedron (dim {dimension(p)} < {p.n})")
    if not is_subset(p, HPolyhedron(p.n, (q,))):
        imp = check_implication(p.inequalities, q)
        if imp.implied:
            raise InternalInvariantError("DD and LP disagree on validity")
        raise InvalidInequalityError(
            "inequality is not valid for the polyhedron", witness=imp.witness)
    return q in remove_redundant(p).inequalities


def fourier_motzkin_project(p: HPolyhedron, keep: Sequence[int]) -> HPolyhedron:
    """Exact orthogonal projection onto the coordinates in ``keep`` (listed
    in increasing original order), irredundant and canonical.

    The projection goes through the generators: the projection of
    conv(V) + cone(R) is conv(V') + cone(R') with every generator
    restricted to ``keep``, so ``h_to_v`` and ``v_to_h`` do the work and
    no LP is solved.  Lines arrive as opposite ray pairs; rays
    that restrict to zero drop out.  An empty p gives
    ``empty_hpolyhedron(len(keep))``."""
    keep = sorted(set(keep))
    if not keep:
        raise ContractViolation("projection needs a nonempty index set")
    if keep[0] < 0 or keep[-1] >= p.n:
        raise ContractViolation(f"projection indices out of range for R^{p.n}")

    v = h_to_v(p)
    if v.is_empty:
        return empty_hpolyhedron(len(keep))
    vertices = {tuple(x[j] for j in keep) for x in v.vertices}
    rays = {primitive(tuple(r[j] for j in keep)) for r in v.rays}
    rays.discard(linalg.zeros(len(keep)))
    return v_to_h(VPolyhedron(len(keep), tuple(sorted(vertices)), tuple(sorted(rays))))


def empty_hpolyhedron(n: int) -> HPolyhedron:
    first = linalg.unit(n, 0)
    return HPolyhedron(n, (Inequality(first, Fraction(-1)), Inequality(linalg.neg(first), _ZERO)))


def same_point_set(p: HPolyhedron, q: HPolyhedron) -> bool:
    """Exact point-set equality: containment both ways."""
    return is_subset(p, q) and is_subset(q, p)


# ---------------------------------------------------------------------------
# text forms


def format_le(q: Inequality) -> str:
    """Token form 'a1 a2 ... an <= b'.  A row of scale 1 is printed from
    its ints, which print as the Fractions they stand for."""
    *normal, rhs = q.row if q.scale == 1 else q.stacked()
    return f"{format_vector(normal)} <= {format_rational(rhs)}"


def format_ge(q: Inequality) -> str:
    """Token form of the same inequality written as -normal.x >= -rhs."""
    *normal, rhs = q.row if q.scale == 1 else q.stacked()
    return f"{format_vector(linalg.neg(normal))} >= {format_rational(-rhs)}"


_TERM = re.compile(r"([+-]?)\s*([0-9]+(?:/[0-9]+)?)?\s*\*?\s*x([0-9]+)\s*")


def parse_inequality(text: str, n: int) -> Inequality:
    """Parse the CLI grammar 'c1 x1 + c2 x2 ... <= b' (or >=) in R^n.
    Error columns count from 1 at the first character of ``text``."""
    for op in ("<=", ">="):
        if op in text:
            lhs, _, rhs_text = text.partition(op)
            break
    else:
        raise ParseError(f"inequality needs '<=' or '>=': {text!r}")
    rhs = rational(rhs_text.strip())
    coeffs = [_ZERO] * n
    # the left side is scanned in place, so columns count in ``text``
    start, end = len(lhs) - len(lhs.lstrip()), len(lhs.rstrip())
    if start >= end:
        raise ParseError("inequality needs a left-hand side (write '0' for none)", column=1)
    if lhs[start:end] != "0":
        pos = start
        while pos < end:
            m = _TERM.match(lhs, pos, end)
            if not m:
                raise ParseError(f"cannot read term at {lhs[pos:end]!r}", column=pos + 1)
            sign, coeff_text, var = m.groups()
            if pos > start and not sign:
                raise ParseError(f"expected '+' or '-' before {lhs[pos:end]!r}",
                                 column=pos + 1)
            idx = int(var) - 1
            if not 0 <= idx < n:
                raise ParseError(f"variable x{var} out of range for n={n}", column=pos + 1)
            coeff = rational(coeff_text) if coeff_text else _ONE
            coeffs[idx] += -coeff if sign == "-" else coeff
            pos = m.end()
    if op == ">=":
        return Inequality(linalg.neg(tuple(coeffs)), -rhs)
    return Inequality(tuple(coeffs), rhs)
