"""Exact polyhedra: half-space descriptions, the double description
they keep, and the reductions and queries read from it.

An ``Inequality`` is a pair (normal, rhs) read as normal.x <= rhs; two
inequalities are the same exactly when their coprime-integer canonical
forms coincide, which identifies them up to positive scaling without
ever leaving the rationals.  ``HPolyhedron`` is a finite intersection of
half-spaces.  ``_v_to_h_rows`` gives the facets of a full-dimensional
conv(vertices) + cone(rays), read in exact arithmetic from the double
description of its pointed polar cone.  Empty polyhedra are ordinary
values.

``dd_cone`` takes and returns primitive integer rows, and an
``Inequality`` stores one: its primitive row, plus the positive scale
that gives back the values it was built from (1 for every row the
library makes).  Identity, hashing and sorting read the row;
``stacked()`` is the Fraction view made on read, so a facet that
``_v_to_h_rows`` reads off a DD row makes no Fraction until it is used.

Each ``HPolyhedron`` keeps one double description (DD), built on the
first query that needs it: the polar of the cone its rows and
(0, ..., 0, 1) span, where a point x is the ray (x, -1) as in
``_v_to_h_rows``.  It gives the polyhedron's emptiness and dimension,
and the facets of a full-dimensional one.  It is a ``_PolarDD``, the
one form of a polar DD (``_dd_zero_sets`` makes one of bare rows): its
rays, each row's zero set, the one the DD itself tracks to test
adjacency, and the dimension: n minus the rank of the rows tight at
every ray, the implicit equalities, a list that is usually empty.  The
facets are read from the same zero sets with no rank.  The same generators decide containment (``is_subset``, the flat
redundancy scan); an LP remains only where a certificate is returned
(``check_implication``, on the int rows).

A full-dimensional polyhedron has one irredundant system up to positive
scaling of rows: its facets (Schrijver 1986, section 8.4).  So for such
polyhedra, irredundant systems in ``sorted_unique`` order (which
``remove_redundant`` keeps) describe the same set exactly when they are
equal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    ContractViolation,
    InconsistentSystemError,
    InternalInvariantError,
    ParseError,
)
from . import linalg
from .linalg import (IntRow, Vector, combine, dot, format_rational, format_vector,
                     int_dot, rational)
from .lp import LpStatus, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, init=False, repr=False)
class Inequality:
    """normal.x <= rhs, stored as its primitive integer row and the
    positive scale with scale * row == (normal, rhs) as given.

    Identity (== and hashing) is by the row, so positive rescalings of one
    another compare equal.  ``stacked()`` is the Fraction view made on
    read.  A zero normal is only legal with a nonnegative right-hand
    side: 0.x <= b for b < 0 is not an inequality but an inconsistency
    marker, and callers must represent emptiness with a genuine
    inconsistent system instead.
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
        g = gcd(*ints) or 1
        object.__setattr__(self, "row", tuple(a // g for a in ints))
        object.__setattr__(self, "scale", _ONE if g == common else Fraction(g, common))

    @property
    def n(self) -> int:
        return len(self.row) - 1

    def stacked(self) -> Vector:
        """The (normal, rhs) vector in Q^(n+1)."""
        return tuple(self.scale * a for a in self.row)

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
        """True when no ray of the DD has a negative last entry."""
        return self._dd.dim < 0

    @cached_property
    def _dd(self) -> _PolarDD:
        """``_dd_zero_sets`` of C = {y : g.y <= 0} for p's rows g = (normal,
        rhs) and (0, ..., 0, 1), with the dimension of p (this polyhedron)
        filled in; built on the first query and kept with p, outside ==,
        hash and repr.  C is the polar of the cone the rows span: p's cone of valid inequalities (Schrijver 1986, Cor. 7.1h)
        when p is nonempty.  The last row forces t = 0 on every line, t
        the last entry, so p is empty (dimension -1) exactly when no ray
        has t < 0.  Otherwise C is the closed cone over p x {-1}, so a
        row is tight at every ray (every line is tight at every row)
        exactly when it is an implicit equality of p, and dim p = n -
        rank(implicit equalities) (Schrijver 1986, section 8.2); they hold
        on p, so their right-hand sides add no rank."""
        rows = [q.row for q in self.inequalities]
        rows.append(_unit_row(self.n + 1))
        dd = _dd_zero_sets(rows, self.n + 1)
        if any(l[-1] != 0 for l in dd.lines):
            raise InternalInvariantError("polar cone admits a line with t != 0")
        if all(r[-1] >= 0 for r in dd.rays):
            return dd._replace(dim=-1)
        equalities = [r for r, z in dd.zero_of.items() if z == dd.every]
        return dd._replace(dim=self.n - linalg.rank(equalities))


def _from_row(row: tuple[int, ...]) -> Inequality:
    """row[:-1].x <= row[-1] for a primitive integer row, such as an
    ``Inequality``'s, which is its own canonical form; no Fraction is
    made.  The one place a canonical ``Inequality`` is made from a row."""
    q = object.__new__(Inequality)
    object.__setattr__(q, "row", row)
    object.__setattr__(q, "scale", _ONE)
    return q


def sorted_unique(ineqs: Iterable[Inequality]) -> tuple[Inequality, ...]:
    """Canonical forms, deduplicated, lexicographically sorted."""
    return tuple(map(_from_row, sorted({q.row for q in ineqs})))


# ---------------------------------------------------------------------------
# double description on cones {y : row . y <= 0}


def _line_canonical(v: IntRow) -> IntRow:
    """The primitive row v with its first nonzero entry made positive
    (lines carry no orientation)."""
    lead = next((a for a in v if a), 0)
    return [-a for a in v] if lead < 0 else v


IntRows = tuple[tuple[int, ...], ...]


def _double_description(rows: Sequence[Sequence[int]], dim: int
                        ) -> tuple[IntRows, list[IntRow], list[int], list[int | None]]:
    """The double description that ``dd_cone`` and ``_dd_zero_sets`` read:
    (lines, rays, zs, bits), with the lines sorted as ``dd_cone`` returns
    them, the rays in the order the fold made them, zs[k] the zero set of
    rays[k] over the row bits, and bits[i] the bit of rows[i], or None for
    a zero row, which is tight at every ray.  Each view sorts the rays it
    returns, so ``dd_cone`` pays nothing for the zero sets.

    Incremental double description: start from all of R^dim as a lineality
    basis and fold the nonzero rows in one at a time.  Each ray keeps its
    zero set as an int bitmask: bit k is set when the ray is tight at the
    k-th nonzero row.  A row that hits a line turns that line into a ray
    and projects the other lines and rays onto the row's hyperplane; one
    already on it (value 0 at the row) is kept as it is.  Lines carry no
    orientation and the sign of the new ray comes from the row, so lines
    are put in ``_line_canonical`` form once, on the way out.  Otherwise
    the rays on the row's feasible side stay, and a (negative, positive)
    pair makes a new ray exactly when the two are adjacent, decided from
    zero sets alone (Fukuda & Prodon 1996, Prop. 7): their common zero set
    has at least dim - #lines - 2 rows, and no other ray's zero set
    contains it.  The containment test needs the ray list to be exactly
    the extreme rays, one per class modulo the lineality space; each step
    keeps that invariant, so no ray is repeated and no rank is taken.
    """
    lines: list[IntRow] = [[int(i == j) for i in range(dim)] for j in range(dim)]
    rays: list[IntRow] = []
    zs: list[int] = []  # zs[i]: the zero set of rays[i]
    bits: list[int | None] = []
    bit = 1

    for row in rows:
        if not any(row):
            bits.append(None)
            continue
        bits.append(bit)
        vals = [int_dot(row, l) for l in lines]
        hit = next((j for j in range(len(lines)) if vals[j]), None)
        if hit is not None:
            # star: the hit line oriented so that row.star = -d < 0; it is
            # tight at every earlier row, and every projected ray at this one
            d = abs(vals[hit])
            star = lines[hit] if vals[hit] < 0 else [-a for a in lines[hit]]
            # a line or ray at 0 on the row is already on its hyperplane
            lines = [combine(d, l, -vals[j], star) if vals[j] else l
                     for j, l in enumerate(lines) if j != hit]
            rays = [combine(d, r, -v, star) if (v := int_dot(row, r)) else r
                    for r in rays] + [star]
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

    return tuple(sorted(tuple(_line_canonical(l)) for l in lines)), rays, zs, bits


def dd_cone(rows: Sequence[Sequence[int]], dim: int) -> tuple[IntRows, IntRows]:
    """Minimal generators (lines, rays) of {y in R^dim : r.y <= 0 for all r},
    from ``_double_description``; its zero sets are left unread.
    Rows come in, and lines and rays go out, as primitive integer rows, in
    lexicographic order; callers convert at their own boundary.  The rows
    are folded in the order given: the covering hull passes its unit rows
    first, which keeps the ray lists short.
    """
    lines, rays, _, _ = _double_description(rows, dim)
    return lines, tuple(map(tuple, sorted(rays)))


class _PolarDD(NamedTuple):
    """A polar cone's DD: ``dd_cone``'s lines and rays, each distinct row
    to the rays it is tight at (bit k for rays[k]), and the dimension of
    the polyhedron it belongs to, None for a DD of bare rows."""

    lines: IntRows
    rays: IntRows
    zero_of: dict[tuple[int, ...], int]
    dim: int | None = None

    @property
    def every(self) -> int:
        """The zero set of a row tight at every ray."""
        return (1 << len(self.rays)) - 1


def _dd_zero_sets(rows: Sequence[tuple[int, ...]], dim: int) -> _PolarDD:
    """The ``_PolarDD`` of {y : r.y <= 0 for every row r}, ``dim`` unset.
    The zero sets are the ones the double description tracks to test
    adjacency, turned from one mask per ray into one per row, so no row
    is multiplied by a ray.  This is the one reader of that bitmask
    format."""
    lines, rays, zs, bits = _double_description(rows, dim)
    order = sorted(range(len(rays)), key=rays.__getitem__)
    zs = [zs[i] for i in order]
    dd = _PolarDD(lines, tuple(tuple(rays[i]) for i in order), {})
    for row, b in zip(rows, bits):
        dd.zero_of[row] = dd.every if b is None else sum(
            1 << k for k, z in enumerate(zs) if z & b)
    return dd


# ---------------------------------------------------------------------------
# conversions


def _unit_row(d: int) -> tuple[int, ...]:
    """(0, ..., 0, 1) in Z^d: the valid inequality 0.x <= 1."""
    return (0,) * (d - 1) + (1,)


def _v_to_h_rows(n: int, rows: Sequence[Sequence[int]]) -> HPolyhedron:
    """Irredundant canonical H-representation of a full-dimensional
    P = conv(V) + cone(R) in R^n, given the polar cone's integer rows:
    (v, -1) for each vertex v and (r, 0) for each ray r.

    No LP is needed.  A line of the polar cone {(a, b) : a.v <= b,
    a.r <= 0} would be an equality a.x = b holding on P, so for a
    full-dimensional P the cone is pointed and its extreme rays are P's
    facets and (0, 1), the trivial 0.x <= 1, the only ray with a zero
    normal (Schrijver 1986, section 8.4).  A line raises
    InternalInvariantError.  Every DD ray is a primitive integer row, so
    each is its facet's canonical form, in dd_cone's sorted order."""
    lines, rays = dd_cone(rows, n + 1)
    if lines:
        raise InternalInvariantError("polar cone has a line: the V-description is flat")
    return HPolyhedron(n, tuple(map(_from_row, [g for g in rays if any(g[:-1])])))


# ---------------------------------------------------------------------------
# reductions and queries


def _facets(zero_sets: Iterable[int], every: int) -> set[int]:
    """The zero sets other than ``every`` that no other one strictly
    contains: the facets of a full-dimensional C = {y : g.y <= 0 for every
    row g}, each as the rays of C it holds (Fukuda & Prodon 1996).  Every
    zero set but ``every`` cuts the proper face spanned by C's lines and
    its rays, and every facet of C is cut by some row."""
    faces = set(zero_sets) - {every}
    return {z for z in faces if not any(z != f and z & f == z for f in faces)}


def _holds(lines: IntRows, rays: IntRows, row: Sequence[int]) -> bool:
    """Does a.x <= b hold on a nonempty P given by its DD?  Exactly when
    its row (a, b) lies in the polar of that DD: P's cone of valid
    inequalities, which is finitely generated and so closed."""
    return all(int_dot(row, g) <= 0 for g in rays) and not any(int_dot(row, l) for l in lines)


def remove_redundant(p: HPolyhedron) -> HPolyhedron:
    """Minimal sub-list defining the same set, in input order; an
    inconsistent input is returned unchanged.

    A full-dimensional p keeps the last copy of each facet, read off the
    zero sets kept with its DD, of the cone C over p x {-1}, with no rank.
    Each row, and (0, ..., 0, 1), has a zero set: the rays of C it is
    tight at (every line is tight at every row).  C is
    full-dimensional, so a row tight at every ray is zero (0.x <= 0) and
    cuts no face; any other row cuts the proper face spanned by the lines
    and its zero set.  The facets are the maximal proper faces, and every
    facet is cut by some row, so a row with a nonzero normal is a facet
    exactly when no other row's zero set strictly contains its own, rows
    tight at every ray left out (``_facets``).  A flat p has no unique irredundant
    system: each row in turn is dropped if it holds on the others (a
    nonempty superset of p), read from a throwaway DD.  When no row is
    dropped the answer is p itself, which keeps its DD."""
    dd = p._dd
    if dd.dim < 0:
        return p
    if dd.dim == p.n:
        facets = _facets(dd.zero_of.values(), dd.every)
        last = {q: i for i, q in enumerate(p.inequalities)}
        kept = [q for i, q in enumerate(p.inequalities)
                if last[q] == i and not q.is_trivial() and dd.zero_of[q.row] in facets]
    else:
        kept = list(p.inequalities)
        i = 0
        while i < len(kept):
            others = [q.row for q in kept[:i] + kept[i + 1:]]
            if _holds(*dd_cone(others + [_unit_row(p.n + 1)], p.n + 1), kept[i].row):
                kept.pop(i)
            else:
                i += 1
    return p if len(kept) == len(p.inequalities) else HPolyhedron(p.n, tuple(kept))


def is_subset(p: HPolyhedron, q: HPolyhedron) -> bool:
    """p lies in q: every row of q holds over p's DD (an empty p lies in all)."""
    if p.n != q.n:
        raise ContractViolation("cannot compare polyhedra of different dimension")
    dd = p._dd
    return dd.dim < 0 or all(_holds(dd.lines, dd.rays, t.row) for t in q.inequalities)


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
    max a.x over the system for target a.x <= b, exact either way.  An
    optimum at most b is implied: the LP's optimal duals are the
    multipliers and slack = b - optimum.  An optimum above b is the
    violating point; on an unbounded LP a feasible point (one more LP)
    stepped along the improving ray is.  The system must be consistent
    (otherwise InconsistentSystemError carries the LP's Farkas
    certificate).  The LP reads each row, or ``stacked()`` when the scale
    is not 1: the values the inequality was built from, which the
    multipliers refer to."""
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


def empty_hpolyhedron(n: int) -> HPolyhedron:
    """x_1 <= -1 and -x_1 <= 0 in R^n, n >= 1: the canonical empty system."""
    rest = (0,) * (n - 1)
    return HPolyhedron(n, (_from_row((1, *rest, -1)), _from_row((-1, *rest, 0))))


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
    rhs = rational(rhs_text.strip(), len(text) - len(rhs_text.lstrip()) + 1)
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
            try:
                idx = int(var) - 1
            except ValueError:
                raise linalg.number_too_long(column=pos + 1) from None
            if not 0 <= idx < n:
                raise ParseError(f"variable x{var} out of range for n={n}", column=pos + 1)
            coeff = rational(coeff_text, m.start(2) + 1) if coeff_text else _ONE
            coeffs[idx] += -coeff if sign == "-" else coeff
            pos = m.end()
    if op == ">=":
        return Inequality(linalg.neg(tuple(coeffs)), -rhs)
    return Inequality(tuple(coeffs), rhs)
