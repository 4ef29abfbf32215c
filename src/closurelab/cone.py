"""Finitely generated cones of inequality vectors and the cutting-plane
closure they induce.

A ``GeneratedCone`` holds a finite family of nonzero vectors (alpha, beta)
in Q^(n+1), each read as the half-space alpha.x <= beta; the closure is
their intersection.  Each cone keeps its distinct generators as primitive
integer rows, made once; Fractions are made only for returned values.
Extreme rays and pointedness come from the polar cone's double
description (for a cone holding (0, ..., 0, 1), the closure system's
cached one), so ``extreme_rays`` and ``check_theorem1`` solve no LP on a
pointed cone.  Exact LPs remain where a certificate is printed: a line,
a strict support, validity multipliers, a violating point.

For a finite family the conical hull is closed, so each extreme ray is
one of the generators up to positive scaling; ``check_theorem1`` turns
that statement and the pointedness/full-dimension equivalence into a
runtime cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ContractViolation,
    EmptyClosureError,
    InternalInvariantError,
    InvalidInequalityError,
    NotFullDimensionalError,
    NotPointedError,
)
from . import linalg
from .linalg import Vector, dot
from .lp import LpStatus, cone_membership, solve_lp
from .polyhedron import (
    HPolyhedron,
    Inequality,
    IntRows,
    _from_row,
    _homogenized_dd,
    _zero_set,
    check_implication,
    dd_cone,
    empty_hpolyhedron,
    dimension,
    remove_redundant,
    sorted_unique,
)


@dataclass(frozen=True)
class GeneratedCone:
    """cone(generators) for a finite family of candidate inequality vectors.

    Generators are stored in canonical primitive form and must be nonzero;
    the last coordinate is the right-hand side of the inequality the
    generator encodes.
    """

    generators: tuple[Vector, ...]
    # the distinct generators as primitive int rows, in first-seen order
    _rows: tuple[tuple[int, ...], ...] = field(default=(), init=False, repr=False,
                                               compare=False)

    def __post_init__(self):
        self._set_rows(tuple(tuple(linalg.int_row(linalg.vector(g))) for g in self.generators))

    @classmethod
    def _of_rows(cls, rows: tuple[tuple[int, ...], ...]) -> "GeneratedCone":
        """The cone of rows already primitive, checked but not rescaled."""
        k = object.__new__(cls)
        k._set_rows(rows)
        return k

    def _set_rows(self, rows: tuple[tuple[int, ...], ...]) -> None:
        if not rows:
            raise ContractViolation("a generated cone needs at least one generator")
        d = len(rows[0])
        if d < 2:
            raise ContractViolation("generators live in Q^(n+1) with n >= 1")
        for i, row in enumerate(rows):
            linalg.check_dim(row, d, "generator")
            if not any(row):
                raise ContractViolation("the zero vector is not a legal generator",
                                        at=("generators", i))
        object.__setattr__(self, "generators", tuple(map(linalg.vector, rows)))
        object.__setattr__(self, "_rows", tuple(dict.fromkeys(rows)))

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    @property
    def n(self) -> int:
        """Ambient dimension of the closure the generators cut out."""
        return self.dim - 1

    @property
    def has_unit_last(self) -> bool:
        return self._unit_row() in self._rows

    def unit_last(self) -> Vector:
        return linalg.unit(self.dim, self.n)

    def _unit_row(self) -> tuple[int, ...]:
        return (0,) * self.n + (1,)

    def with_unit_last(self) -> tuple["GeneratedCone", bool]:
        """The same cone, with (0, ..., 0, 1) appended when missing."""
        if self.has_unit_last:
            return self, False
        return GeneratedCone._of_rows(self._rows + (self._unit_row(),)), True

    def unique_generators(self) -> tuple[Vector, ...]:
        return tuple(dict.fromkeys(self.generators))


@dataclass(frozen=True)
class RaySet:
    """Extreme rays in canonical primitive form, lexicographically sorted."""

    rays: tuple[Vector, ...]

    def __post_init__(self):
        object.__setattr__(self, "rays", tuple(sorted(dict.fromkeys(self.rays))))


@dataclass(frozen=True)
class Pointedness:
    """is_pointed outcome: a strict support (h.g > 0 on every generator)
    when pointed, otherwise a nonzero v with v and -v both in the cone."""

    pointed: bool
    support: Vector | None = None
    line_witness: Vector | None = None


@dataclass(frozen=True)
class ValidityCheck:
    """is_valid_for_closure outcome: multipliers over the unit-last-extended
    generator list when valid, a violating closure point when not."""

    valid: bool
    generators: tuple[Vector, ...]
    multipliers: Vector | None = None
    witness: Vector | None = None


@dataclass(frozen=True)
class FiiCheck:
    """Extreme-ray test for a valid inequality: not expressible from the
    other generators.  When it is expressible, ``multipliers`` reproduce
    the inequality vector from ``others`` exactly."""

    is_fii: bool
    others: tuple[Vector, ...]
    multipliers: Vector | None = None


@dataclass(frozen=True)
class Theorem1Report:
    passed: bool
    pointed: bool
    extreme_rays: tuple[Vector, ...]
    rays_are_generators: bool
    rebuilt_equals_closure: bool
    added_unit_last: bool
    detail: str = ""


def _line_through(rows: tuple[tuple[int, ...], ...]) -> Vector | None:
    """A generator spanning a line of cone(rows), or None when the cone is
    pointed.  Decided as membership of (0, ..., 0, 1) in cone of the lifted
    generators (g, 1): multipliers are mu >= 0 with sum mu_i g_i = 0 and
    sum mu_i = 1, and any generator carrying positive weight spans a line;
    a separator (h, t) has t > 0 and h.g <= -t, so -h strictly supports
    every generator.  Either answer is substitution-checked."""
    member = cone_membership([g + (1,) for g in rows], (0,) * len(rows[0]) + (1,))
    if not member.member:
        return None
    return linalg.vector(next(g for g, m in zip(rows, member.multipliers) if m > 0))


def is_pointed(k: GeneratedCone) -> Pointedness:
    """Strict-support test: maximize s subject to h.g >= s over the box
    -1 <= h_i <= 1.  A positive optimum gives the support h; otherwise the
    line search must find a generator spanning a line of the cone."""
    d = k.dim
    rows = [tuple(-a for a in g) + (1,) for g in k._rows]  # s - h.g <= 0
    for j in range(d):
        e = tuple(int(i == j) for i in range(d + 1))
        rows += [e, tuple(-a for a in e)]
    rhs = (0,) * len(k._rows) + (1,) * (2 * d)
    res = solve_lp(tuple(rows), rhs, (0,) * d + (1,), "max")
    if res.status is not LpStatus.OPTIMAL:
        raise InternalInvariantError("support LP is bounded and feasible")
    if res.objective > 0:
        h = res.x[:d]
        if any(dot(h, g) <= 0 for g in k._rows):
            raise InternalInvariantError("support vector fails substitution")
        return Pointedness(True, support=h)
    witness = _line_through(k._rows)
    if witness is None:
        raise InternalInvariantError("support LP and line search disagree")
    return Pointedness(False, line_witness=witness)


def _polar_rays(k: GeneratedCone) -> IntRows:
    """The rays of the polar cone {y : g.y <= 0 for every generator g}.
    With unit-last, the rows (a, -b) and -t <= 0 of the closure system's
    cached homogenization are the generators with t = -y_last, so its rays
    are read with the last entry negated; other cones take one dd_cone."""
    rows = _closure_rows(k) if k.has_unit_last else None
    if rows is None:
        return dd_cone(k._rows, k.dim)[1]
    return tuple(r[:-1] + (-r[-1],) for r in _homogenized_dd(_system(k.n, rows))[1])


def extreme_rays(k: GeneratedCone) -> RaySet:
    """The extreme rays of cone(generators), each a generator up to
    positive scaling, with no LP on a pointed cone.  A generator's zero set
    is the polar rays it is tight at.  One tight at every ray is orthogonal
    to the polar, so the cone has a line (NotPointedError, the line named
    by the line search).  Otherwise a generator is extreme exactly when its
    face of the polar is a facet: no other generator's zero set contains
    its own (Fukuda & Prodon 1996)."""
    rays = _polar_rays(k)
    zs = [_zero_set(g, rays) for g in k._rows]
    if (1 << len(rays)) - 1 in zs:
        line = _line_through(k._rows)
        if line is None:
            raise InternalInvariantError("DD and line search disagree")
        raise NotPointedError(
            "extreme rays are only defined for pointed cones", line_witness=line)
    return RaySet(tuple(linalg.vector(g) for i, (g, z) in enumerate(zip(k._rows, zs))
                        if not any(j != i and y & z == z for j, y in enumerate(zs))))


def _closure_rows(k: GeneratedCone) -> list[Inequality] | None:
    """The generators as rows alpha.x <= beta, in order, skipping 0.x <= b
    >= 0 (unit-last among them); None if some generator is 0.x <= b < 0.
    A primitive generator is its inequality's canonical row."""
    out = []
    for g in k._rows:
        if not any(g[:-1]):
            if g[-1] < 0:
                return None
            continue  # 0.x <= b, b >= 0: no constraint
        out.append(_from_row(g))
    return out


def _system(n: int, rows: list[Inequality]) -> HPolyhedron:
    """The closure system whose cached DD all cone queries read."""
    return HPolyhedron(n, sorted_unique(rows))


def closure_of(k: GeneratedCone) -> HPolyhedron:
    """The set cut out by reading every generator as alpha.x <= beta,
    with (0, ..., 0, 1) supplied when missing; redundancy-eliminated.
    The result may be empty."""
    rows = _closure_rows(k)
    if rows is None:
        return empty_hpolyhedron(k.n)
    return remove_redundant(_system(k.n, rows))


def is_valid_for_closure(k: GeneratedCone, q: Inequality) -> ValidityCheck:
    """Validity of q over the closure, decided as membership of (alpha,
    beta) in cone(generators + unit-last).  The closure must be nonempty."""
    if q.n != k.n:
        raise ContractViolation("inequality/cone dimension mismatch")
    ku, _ = k.with_unit_last()
    rows = _closure_rows(k)
    # the LP below keeps generator order, which fixes its witness
    if rows is None or _system(k.n, rows).is_empty:
        raise EmptyClosureError("validity over an empty closure is undefined")
    gens = ku.unique_generators()
    member = cone_membership(ku._rows, q.stacked())
    if member.member:
        return ValidityCheck(True, gens, multipliers=member.multipliers)
    imp = check_implication(rows, q)
    if imp.implied:
        raise InternalInvariantError("invalidity witness fails substitution")
    return ValidityCheck(False, gens, witness=imp.witness)


def fii_check(k: GeneratedCone, q: Inequality) -> FiiCheck:
    """Is q an extreme ray of cone(generators + unit-last)?  Exactly the
    inequalities no finite family of other valid inequalities implies.
    Requires a full-dimensional closure and a valid q."""
    ku, _ = k.with_unit_last()
    closure = closure_of(ku)
    if dimension(closure) != k.n:
        raise NotFullDimensionalError(
            "the extreme-ray/irredundancy correspondence assumes a "
            "full-dimensional closure")
    validity = is_valid_for_closure(ku, q)
    if not validity.valid:
        raise InvalidInequalityError(
            "inequality is not valid for the closure", witness=validity.witness)
    canon = q._primitive_row()
    others = tuple(g for g in ku._rows if g != canon)
    if others == ku._rows:
        # q's row is no generator, so the validity LP already asked this
        return FiiCheck(False, validity.generators, multipliers=validity.multipliers)
    member = cone_membership(others, q.stacked())
    return FiiCheck(not member.member, tuple(map(linalg.vector, others)),
                    multipliers=member.multipliers)


def is_fii(k: GeneratedCone, q: Inequality) -> bool:
    return fii_check(k, q).is_fii


def check_theorem1(k: GeneratedCone) -> Theorem1Report:
    """Cross-check on a finite family with full-dimensional closure:
    (a) the closure rebuilt from the extreme rays alone is the same point
    set, and (b) pointedness holds, matching full dimension.  The rebuilt
    closure contains the full-dimensional one and both are canonical facet
    lists, so (a) is list equality; (b) and the rays are read from the
    closure system's cached DD, so a pointed cone costs no LP."""
    ku, added = k.with_unit_last()
    closure = closure_of(ku)
    if dimension(closure) != k.n:
        raise NotFullDimensionalError(
            "the equivalence is stated for full-dimensional closures "
            f"(found dimension {dimension(closure)} in R^{k.n})")
    try:
        rays = extreme_rays(ku)
    except NotPointedError as e:
        return Theorem1Report(
            passed=False, pointed=False, extreme_rays=(),
            rays_are_generators=False, rebuilt_equals_closure=False,
            added_unit_last=added,
            detail=(f"full-dimensional closure but cone contains the line "
                    f"through {linalg.format_vector(e.line_witness)}"))
    gen_set = set(ku._rows)  # a ray's Fractions equal and hash as its int row
    rays_ok = all(r in gen_set for r in rays.rays)
    rows = tuple(tuple(map(int, r)) for r in rays.rays)  # primitive, so integral
    equal = closure == closure_of(GeneratedCone._of_rows(rows + (ku._unit_row(),)))
    detail = ""
    if not rays_ok:
        stray = next(r for r in rays.rays if r not in gen_set)
        detail = f"extreme ray {linalg.format_vector(stray)} is not a generator"
    elif not equal:
        detail = "closure rebuilt from extreme rays differs from the full closure"
    return Theorem1Report(
        passed=rays_ok and equal, pointed=True, extreme_rays=rays.rays,
        rays_are_generators=rays_ok, rebuilt_equals_closure=equal,
        added_unit_last=added, detail=detail)
