"""Exact polyhedra: half-space and generator descriptions and the
conversions, reductions, and queries connecting them.

An ``Inequality`` is a pair (normal, rhs) read as normal.x <= rhs; two
inequalities are the same exactly when their coprime-integer canonical
forms coincide, which identifies them up to positive scaling without
ever leaving the rationals.  ``HPolyhedron`` is a finite intersection of
half-spaces, ``VPolyhedron`` is conv(vertices) + cone(rays); conversion
both ways runs the double description method on the homogenization,
entirely in exact arithmetic.  Empty polyhedra are ordinary values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import (
    ContractViolation,
    InconsistentSystemError,
    InternalInvariantError,
    InvalidInequalityError,
    NotFullDimensionalError,
    ParseError,
)
from . import linalg
from .linalg import (IntRow, Matrix, Vector, combine, dot, format_rational, format_vector,
                     int_dot, primitive, rational)
from .lp import LpStatus, cone_membership, solve_lp

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True, eq=False)
class Inequality:
    """normal.x <= rhs, kept exactly as constructed.

    Identity (== and hashing) is by canonical form, so positive rescalings
    of one another compare equal.  A zero normal is only legal with a
    nonnegative right-hand side: 0.x <= b for b < 0 is not an inequality
    but an inconsistency marker, and callers must represent emptiness with
    a genuine inconsistent system instead.
    """

    normal: Vector
    rhs: Fraction

    def __post_init__(self):
        object.__setattr__(self, "normal", linalg.vector(self.normal))
        object.__setattr__(self, "rhs", rational(self.rhs))
        if linalg.is_zero(self.normal) and self.rhs < 0:
            raise ContractViolation(
                f"zero normal requires nonnegative rhs, got {self.rhs}")

    @property
    def n(self) -> int:
        return len(self.normal)

    def stacked(self) -> Vector:
        """The (normal, rhs) vector in Q^(n+1)."""
        return self.normal + (self.rhs,)

    def canonical_stacked(self) -> Vector:
        return primitive(self.stacked())

    def canonical(self) -> "Inequality":
        v = self.canonical_stacked()
        return Inequality(v[:-1], v[-1])

    def flipped(self) -> "Inequality":
        """The reverse inequality -normal.x <= -rhs (for equality pairs)."""
        return Inequality(linalg.neg(self.normal), -self.rhs)

    def satisfied_by(self, x: Vector) -> bool:
        return dot(self.normal, x) <= self.rhs

    def is_trivial(self) -> bool:
        return linalg.is_zero(self.normal)

    def __eq__(self, other):
        if not isinstance(other, Inequality):
            return NotImplemented
        return self.canonical_stacked() == other.canonical_stacked()

    def __hash__(self):
        return hash(self.canonical_stacked())

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

    def as_rows(self) -> tuple[Matrix, Vector]:
        return (tuple(q.normal for q in self.inequalities),
                tuple(q.rhs for q in self.inequalities))

    def contains(self, x: Vector) -> bool:
        linalg.check_dim(x, self.n, "point")
        return all(q.satisfied_by(x) for q in self.inequalities)

    @property
    def is_empty(self) -> bool:
        return _is_empty(self)


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


def ineq(normal: Iterable, rhs) -> Inequality:
    return Inequality(linalg.vector(normal), rational(rhs))


def ge(normal: Iterable, rhs) -> Inequality:
    """Build normal.x >= rhs in the internal <= orientation."""
    return Inequality(linalg.neg(linalg.vector(normal)), -rational(rhs))


def _sort_key(q: Inequality) -> Vector:
    return q.canonical_stacked()


def sorted_unique(ineqs: Iterable[Inequality]) -> tuple[Inequality, ...]:
    """Canonical forms, deduplicated, lexicographically sorted."""
    seen = {}
    for q in ineqs:
        seen.setdefault(q.canonical_stacked(), q.canonical())
    return tuple(seen[k] for k in sorted(seen))


@lru_cache(maxsize=None)
def _is_empty(p: HPolyhedron) -> bool:
    a, b = p.as_rows()
    res = solve_lp(a, b, linalg.zeros(p.n), "max")
    return res.status is LpStatus.INFEASIBLE


# ---------------------------------------------------------------------------
# double description on cones {y : row . y <= 0}


def _line_canonical(v: IntRow) -> IntRow:
    """The primitive row v with its first nonzero entry made positive
    (lines carry no orientation)."""
    lead = next((a for a in v if a), 0)
    return [-a for a in v] if lead < 0 else v


def dd_cone(rows: Sequence[Vector], dim: int) -> tuple[tuple[Vector, ...], tuple[Vector, ...]]:
    """Minimal generators (lines, rays) of {y in R^dim : r.y <= 0 for all r}.

    Incremental double description: start from all of R^dim as a lineality
    basis, fold constraints in one at a time, and keep a ray exactly when
    the processed rows tight at it have rank dim - #lines - 1 (the exact
    rank test for extremality modulo the lineality space).  Rows, lines
    and rays are primitive integer rows throughout (rays as tuples, so
    they can be deduplicated); the generators come back as Fraction
    vectors.
    """
    lines: list[IntRow] = [[int(i == j) for i in range(dim)] for j in range(dim)]
    rays: list[tuple[int, ...]] = []
    processed: list[IntRow] = []

    for raw in rows:
        row = linalg.int_row(raw)
        if not any(row):
            continue
        processed.append(row)
        vals = [int_dot(row, l) for l in lines]
        hit = next((j for j in range(len(lines)) if vals[j]), None)
        if hit is not None:
            # star: the hit line oriented so that row.star = -d < 0
            d = abs(vals[hit])
            star = lines[hit] if vals[hit] < 0 else [-a for a in lines[hit]]
            lines = [_line_canonical(combine(d, l, -vals[j], star))
                     for j, l in enumerate(lines) if j != hit]
            rays = _dedupe([combine(d, r, -int_dot(row, r), star) for r in rays] + [star])
            continue

        zero, posi, negi = [], [], []
        for r in rays:
            v = int_dot(row, r)
            (zero if v == 0 else posi if v > 0 else negi).append((r, v))
        candidates = [r for r, _ in zero] + [r for r, _ in negi]
        for rn, vn in negi:
            for rp, vp in posi:
                w = combine(vp, rn, vn, rp)
                if any(w):
                    candidates.append(w)
        target = dim - len(lines) - 1
        rays = [
            r for r in _dedupe(candidates)
            if linalg.rank([q for q in processed if int_dot(q, r) == 0]) == target
        ]

    return (tuple(tuple(map(Fraction, l)) for l in sorted(lines)),
            tuple(tuple(map(Fraction, r)) for r in sorted(rays)))


def _dedupe(rows: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The distinct rows as tuples, in first-seen order."""
    return list(dict.fromkeys(map(tuple, rows)))


# ---------------------------------------------------------------------------
# conversions


def h_to_v(p: HPolyhedron) -> VPolyhedron:
    """Exact V-representation via double description of the homogenization
    {(x, t) : normal.x - rhs.t <= 0, t >= 0}.  Empty input gives empty
    vertex and ray lists; lines come back as opposite ray pairs."""
    if p.n < 1:
        raise ContractViolation("ambient dimension must be at least 1")
    rows = [q.normal + (-q.rhs,) for q in p.inequalities]
    rows.append(linalg.zeros(p.n) + (-_ONE,))
    lines, rays = dd_cone(rows, p.n + 1)

    vertices = []
    directions = []
    for r in rays:
        if r[-1] > 0:
            vertices.append(tuple(a / r[-1] for a in r[:-1]))
        else:
            directions.append(primitive(r[:-1]))
    for l in lines:
        if l[-1] != 0:
            raise ContractViolation("homogenization admits a line with t != 0")
        directions.append(primitive(l[:-1]))
        directions.append(primitive(linalg.neg(l[:-1])))
    if not vertices:
        return VPolyhedron(p.n, (), ())
    return VPolyhedron(p.n, tuple(sorted(set(vertices))), tuple(sorted(set(directions))))


def v_to_h(p: VPolyhedron) -> HPolyhedron:
    """Irredundant canonical H-representation of conv(vertices) + cone(rays).

    A rays-only description is read as a cone with apex at the origin.
    Implicit equalities of flat polyhedra come out as inequality pairs.
    """
    vertices = p.vertices
    if not vertices and not p.rays:
        raise ContractViolation("V-representation needs at least one vertex or ray")
    if not vertices:
        vertices = (linalg.zeros(p.n),)
    rows = [v + (-_ONE,) for v in vertices]
    rows.extend(r + (_ZERO,) for r in p.rays)
    lines, rays = dd_cone(rows, p.n + 1)

    out = []
    for g in rays:
        normal, rhs = g[:-1], g[-1]
        if linalg.is_zero(normal):
            continue  # 0.x <= b with b >= 0 carries no information
        out.append(Inequality(normal, rhs))
    for g in lines:
        normal, rhs = g[:-1], g[-1]
        q = Inequality(normal, rhs)
        out.extend((q, q.flipped()))
    result = HPolyhedron(p.n, sorted_unique(out))
    return remove_redundant(result)


# ---------------------------------------------------------------------------
# reductions and queries


def remove_redundant(p: HPolyhedron) -> HPolyhedron:
    """Minimal sub-list defining the same set: scan in order and drop each
    inequality implied by the survivors.  An inconsistent input is returned
    unchanged; callers observe that through ``is_empty``."""
    if p.is_empty:
        return p
    kept = list(p.inequalities)
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1:]
        a = tuple(q.normal for q in others)
        b = tuple(q.rhs for q in others)
        res = solve_lp(a, b, kept[i].normal, "max")
        if res.status is LpStatus.OPTIMAL and res.objective <= kept[i].rhs:
            kept.pop(i)
        else:
            i += 1
    return HPolyhedron(p.n, tuple(kept))


@dataclass(frozen=True)
class Implication:
    """check_implication outcome: exact multipliers over the system plus a
    slack coefficient on 0.x <= 1 when implied, a violating point when not."""

    implied: bool
    multipliers: Vector | None = None
    slack: Fraction | None = None
    witness: Vector | None = None


def check_implication(system: Sequence[Inequality], target: Inequality) -> Implication:
    """Does the system of inequalities force target?  Exact either way; the
    system must be consistent (otherwise InconsistentSystemError carries a
    Farkas certificate)."""
    system = tuple(system)
    n = target.n
    for q in system:
        if q.n != n:
            raise ContractViolation("system/target dimension mismatch")
    a = tuple(q.normal for q in system)
    b = tuple(q.rhs for q in system)
    feas = solve_lp(a, b, linalg.zeros(n), "max")
    if feas.status is LpStatus.INFEASIBLE:
        raise InconsistentSystemError(
            "implication requires a consistent system", certificate=feas.certificate)

    unit_last = linalg.zeros(n) + (_ONE,)
    member = cone_membership([q.stacked() for q in system] + [unit_last], target.stacked())
    if member.member:
        mult = member.multipliers
        return Implication(True, multipliers=mult[:-1], slack=mult[-1])

    res = solve_lp(a, b, target.normal, "max")
    if res.status is LpStatus.OPTIMAL:
        witness = res.x
    else:
        x0 = feas.x
        ray = res.certificate
        gain = dot(target.normal, ray)
        step = max(_ZERO, (target.rhs - dot(target.normal, x0)) / gain) + 1
        witness = linalg.add(x0, linalg.scale(step, ray))
    if target.satisfied_by(witness) or not all(q.satisfied_by(witness) for q in system):
        raise InternalInvariantError("witness fails substitution check")
    return Implication(False, witness=witness)


def dimension(p: HPolyhedron) -> int:
    """Affine dimension, or -1 for the empty polyhedron."""
    return _dimension(p)


@lru_cache(maxsize=None)
def _dimension(p: HPolyhedron) -> int:
    if p.is_empty:
        return -1
    a, b = p.as_rows()
    tight_rows = []
    for q in p.inequalities:
        res = solve_lp(a, b, q.normal, "min")
        if res.status is LpStatus.OPTIMAL and res.objective == q.rhs:
            tight_rows.append(q.normal)
    return p.n - linalg.rank(tight_rows)


def is_facet_defining(p: HPolyhedron, q: Inequality) -> bool:
    """True when the face p intersect {normal.x = rhs} has dimension n-1.
    Requires p full-dimensional and q valid for p."""
    if q.n != p.n:
        raise ContractViolation("inequality/polyhedron dimension mismatch")
    if dimension(p) != p.n:
        raise NotFullDimensionalError(
            f"facet test requires a full-dimensional polyhedron (dim {dimension(p)} < {p.n})")
    imp = check_implication(p.inequalities, q)
    if not imp.implied:
        raise InvalidInequalityError(
            "inequality is not valid for the polyhedron", witness=imp.witness)
    face = HPolyhedron(p.n, p.inequalities + (q, q.flipped()))
    return dimension(face) == p.n - 1


def fourier_motzkin_project(p: HPolyhedron, keep: Sequence[int]) -> HPolyhedron:
    """Exact orthogonal projection onto the coordinates in ``keep`` (listed
    in increasing original order), redundancy-eliminated."""
    keep = sorted(set(keep))
    if not keep:
        raise ContractViolation("projection needs a nonempty index set")
    if keep[0] < 0 or keep[-1] >= p.n:
        raise ContractViolation(f"projection indices out of range for R^{p.n}")

    system = list(p.inequalities)
    for j in sorted(set(range(p.n)) - set(keep), reverse=True):
        lower, upper, neutral = [], [], []
        for q in system:
            c = q.normal[j]
            (neutral if c == 0 else upper if c > 0 else lower).append(q)
        combined = list(neutral)
        upper = [linalg.int_row(q.stacked()) for q in upper]
        for ql in lower:
            low = linalg.int_row(ql.stacked())
            for up in upper:
                *normal, rhs = combine(up[j], low, low[j], up)
                if not any(normal):
                    if rhs < 0:
                        return empty_hpolyhedron(len(keep))
                    continue
                combined.append(Inequality(normal, rhs))
        system = [
            q for q in sorted_unique(combined)
            if not q.is_trivial()
        ]
        reduced = remove_redundant(HPolyhedron(p.n, tuple(system)))
        system = list(reduced.inequalities)

    out = []
    for q in system:
        normal = tuple(q.normal[j] for j in keep)
        if linalg.is_zero(normal):
            if q.rhs < 0:
                return empty_hpolyhedron(len(keep))
            continue
        out.append(Inequality(normal, q.rhs))
    result = HPolyhedron(len(keep), sorted_unique(out))
    return remove_redundant(result)


def empty_hpolyhedron(n: int) -> HPolyhedron:
    first = linalg.unit(n, 0)
    return HPolyhedron(n, (Inequality(first, Fraction(-1)), Inequality(linalg.neg(first), _ZERO)))


def same_point_set(p: HPolyhedron, q: HPolyhedron) -> bool:
    """Exact point-set equality via mutual implication of every inequality."""
    if p.n != q.n:
        raise ContractViolation("cannot compare polyhedra of different dimension")
    if p.is_empty or q.is_empty:
        return p.is_empty and q.is_empty
    return (all(check_implication(p.inequalities, t).implied for t in q.inequalities)
            and all(check_implication(q.inequalities, t).implied for t in p.inequalities))


# ---------------------------------------------------------------------------
# text forms


def format_le(q: Inequality) -> str:
    """Token form 'a1 a2 ... an <= b'."""
    return f"{format_vector(q.normal)} <= {format_rational(q.rhs)}"


def format_ge(q: Inequality) -> str:
    """Token form of the same inequality written as -normal.x >= -rhs."""
    return f"{format_vector(linalg.neg(q.normal))} >= {format_rational(-q.rhs)}"


def format_human(q: Inequality, orient: str = "le") -> str:
    """Grammar form 'c1 x1 + c2 x2 <= b' (or the >= rewrite)."""
    if orient == "ge":
        normal, rhs, op = linalg.neg(q.normal), -q.rhs, ">="
    else:
        normal, rhs, op = q.normal, q.rhs, "<="
    parts = []
    for j, c in enumerate(normal):
        if c == 0:
            continue
        mag = abs(c)
        term = f"x{j + 1}" if mag == 1 else f"{format_rational(mag)} x{j + 1}"
        if not parts:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f"- {term}" if c < 0 else f"+ {term}")
    lhs = " ".join(parts) if parts else "0"
    return f"{lhs} {op} {format_rational(rhs)}"


_TERM = re.compile(r"([+-]?)\s*(\d+(?:/\d+)?)?\s*\*?\s*x(\d+)\s*")


def parse_inequality(text: str, n: int) -> Inequality:
    """Parse the CLI grammar 'c1 x1 + c2 x2 ... <= b' (or >=) in R^n."""
    for op in ("<=", ">="):
        if op in text:
            lhs, _, rhs_text = text.partition(op)
            break
    else:
        raise ParseError(f"inequality needs '<=' or '>=': {text!r}")
    rhs = rational(rhs_text.strip())
    coeffs = [_ZERO] * n
    pos = 0
    lhs_stripped = lhs.strip()
    if lhs_stripped == "0":
        pass
    else:
        while pos < len(lhs_stripped):
            m = _TERM.match(lhs_stripped, pos)
            if not m:
                raise ParseError(f"cannot read term at {lhs_stripped[pos:]!r}", column=pos + 1)
            sign, coeff_text, var = m.groups()
            idx = int(var) - 1
            if not 0 <= idx < n:
                raise ParseError(f"variable x{var} out of range for n={n}", column=pos + 1)
            coeff = rational(coeff_text) if coeff_text else _ONE
            coeffs[idx] += -coeff if sign == "-" else coeff
            pos = m.end()
    if op == ">=":
        return Inequality(linalg.neg(tuple(coeffs)), -rhs)
    return Inequality(tuple(coeffs), rhs)


def parse_le_tokens(text: str, n: int, line: int = 0) -> Inequality:
    """Parse the file token form 'a1 ... an <= b' or 'a1 ... an >= b'."""
    for op in ("<=", ">="):
        if op in text:
            left, _, right = text.partition(op)
            normal = linalg.parse_vector(left, n, line)
            rhs = rational(right.strip())
            if op == ">=":
                return Inequality(linalg.neg(normal), -rhs)
            return Inequality(normal, rhs)
    raise ParseError("inequality line needs '<=' or '>='", line, 1)
