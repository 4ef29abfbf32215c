"""Finitely generated cones of inequality vectors and the cutting-plane
closure they induce.

A ``GeneratedCone`` holds a finite family of nonzero vectors (alpha, beta)
in Q^(n+1), each read as the half-space alpha.x <= beta.  The closure of
the family is the intersection of those half-spaces.  Everything here is
exact and every answer carries a checkable certificate.  Cone membership
decides extreme rays (against the remaining generators), validity, and
pointedness: (0, ..., 0, 1) lies in the cone of the lifted generators
(g, 1) exactly when the cone contains a line.  ``is_pointed`` also
solves a strict-support LP over a box, because it reports the support;
``extreme_rays`` and ``check_theorem1`` solve no LP.  A violating point
for an invalid inequality comes from ``check_implication``.

For a finite family the conical hull is closed, so each extreme ray is
one of the generators up to positive scaling; ``check_theorem1`` turns
that statement and the pointedness/full-dimension equivalence into a
runtime cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ContractViolation,
    EmptyClosureError,
    InternalInvariantError,
    InvalidInequalityError,
    NotFullDimensionalError,
    NotPointedError,
)
from . import linalg
from .linalg import Vector, dot, primitive
from .lp import LpStatus, cone_membership, solve_lp
from .polyhedron import (
    HPolyhedron,
    Inequality,
    check_implication,
    empty_hpolyhedron,
    dimension,
    remove_redundant,
    sorted_unique,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class GeneratedCone:
    """cone(generators) for a finite family of candidate inequality vectors.

    Generators are stored in canonical primitive form and must be nonzero;
    the last coordinate is the right-hand side of the inequality the
    generator encodes.
    """

    generators: tuple[Vector, ...]

    def __post_init__(self):
        gens = tuple(primitive(linalg.vector(g)) for g in self.generators)
        if not gens:
            raise ContractViolation("a generated cone needs at least one generator")
        d = len(gens[0])
        if d < 2:
            raise ContractViolation("generators live in Q^(n+1) with n >= 1")
        for g in gens:
            linalg.check_dim(g, d, "generator")
            if linalg.is_zero(g):
                raise ContractViolation("the zero vector is not a legal generator")
        object.__setattr__(self, "generators", gens)

    @property
    def dim(self) -> int:
        return len(self.generators[0])

    @property
    def n(self) -> int:
        """Ambient dimension of the closure the generators cut out."""
        return self.dim - 1

    @property
    def has_unit_last(self) -> bool:
        return self.unit_last() in self.generators

    def unit_last(self) -> Vector:
        return linalg.zeros(self.n) + (_ONE,)

    def with_unit_last(self) -> tuple["GeneratedCone", bool]:
        """The same cone, with (0, ..., 0, 1) appended when missing."""
        if self.has_unit_last:
            return self, False
        return GeneratedCone(self.generators + (self.unit_last(),)), True

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


def _line_through(gens: tuple[Vector, ...]) -> Vector | None:
    """A generator spanning a line of cone(gens), or None when the cone is
    pointed.  Decided as membership of (0, ..., 0, 1) in cone of the lifted
    generators (g, 1): multipliers are mu >= 0 with sum mu_i g_i = 0 and
    sum mu_i = 1, and any generator carrying positive weight spans a line;
    a separator (h, t) has t > 0 and h.g <= -t, so -h strictly supports
    every generator.  Either answer is substitution-checked."""
    lifted = [g + (_ONE,) for g in gens]
    member = cone_membership(lifted, linalg.zeros(len(gens[0])) + (_ONE,))
    if not member.member:
        return None
    return next(g for g, m in zip(gens, member.multipliers) if m > 0)


def is_pointed(k: GeneratedCone) -> Pointedness:
    """Strict-support test: maximize s subject to h.g >= s over the box
    -1 <= h_i <= 1.  A positive optimum gives the support h; otherwise the
    line search must find a generator spanning a line of the cone."""
    d = k.dim
    gens = k.unique_generators()
    rows = []
    rhs = []
    for g in gens:
        rows.append(linalg.neg(g) + (_ONE,))  # s - h.g <= 0
        rhs.append(_ZERO)
    for j in range(d):
        rows.append(linalg.unit(d + 1, j))
        rhs.append(_ONE)
        rows.append(linalg.neg(linalg.unit(d + 1, j)))
        rhs.append(_ONE)
    objective = linalg.zeros(d) + (_ONE,)
    res = solve_lp(tuple(rows), tuple(rhs), objective, "max")
    if res.status is not LpStatus.OPTIMAL:
        raise InternalInvariantError("support LP is bounded and feasible")
    if res.objective > 0:
        h = res.x[:d]
        if any(dot(h, g) <= 0 for g in gens):
            raise InternalInvariantError("support vector fails substitution")
        return Pointedness(True, support=h)
    witness = _line_through(gens)
    if witness is None:
        raise InternalInvariantError("support LP and line search disagree")
    return Pointedness(False, line_witness=witness)


def extreme_rays(k: GeneratedCone) -> RaySet:
    """The extreme rays of cone(generators), each of which is a generator
    up to positive scaling.  Requires a pointed cone, decided by the line
    search alone (no support LP): a cone containing a line has no
    extreme-ray description and raises NotPointedError."""
    gens = k.unique_generators()
    line = _line_through(gens)
    if line is not None:
        raise NotPointedError(
            "extreme rays are only defined for pointed cones", line_witness=line)
    rays = []
    for i, g in enumerate(gens):
        others = gens[:i] + gens[i + 1:]
        if not cone_membership(others, g).member:
            rays.append(g)
    return RaySet(tuple(rays))


def _closure_rows(k: GeneratedCone) -> list[Inequality] | None:
    """The generators plus unit-last as rows alpha.x <= beta, in order,
    skipping 0.x <= b >= 0; None if some generator is 0.x <= b < 0."""
    ku, _ = k.with_unit_last()
    out = []
    for g in ku.unique_generators():
        normal, rhs = g[:-1], g[-1]
        if linalg.is_zero(normal):
            if rhs < 0:
                return None
            continue  # 0.x <= b, b >= 0: no constraint
        out.append(Inequality(normal, rhs))
    return out


def closure_of(k: GeneratedCone) -> HPolyhedron:
    """The set cut out by reading every generator as alpha.x <= beta,
    with (0, ..., 0, 1) supplied when missing; redundancy-eliminated.
    The result may be empty."""
    rows = _closure_rows(k)
    if rows is None:
        return empty_hpolyhedron(k.n)
    return remove_redundant(HPolyhedron(k.n, sorted_unique(rows)))


def is_valid_for_closure(k: GeneratedCone, q: Inequality) -> ValidityCheck:
    """Validity of q over the closure, decided as membership of (alpha,
    beta) in cone(generators + unit-last).  The closure must be nonempty."""
    if q.n != k.n:
        raise ContractViolation("inequality/cone dimension mismatch")
    ku, _ = k.with_unit_last()
    rows = _closure_rows(ku)
    # sorted_unique rows, as in closure_of, so the cached DD is reused;
    # the LP below keeps generator order, which fixes its witness
    if rows is None or HPolyhedron(k.n, sorted_unique(rows)).is_empty:
        raise EmptyClosureError("validity over an empty closure is undefined")
    gens = ku.unique_generators()
    member = cone_membership(gens, q.stacked())
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
    canon = primitive(q.stacked())
    others = tuple(g for g in ku.unique_generators() if g != canon)
    member = cone_membership(others, q.stacked())
    if member.member:
        return FiiCheck(False, others, multipliers=member.multipliers)
    return FiiCheck(True, others)


def is_fii(k: GeneratedCone, q: Inequality) -> bool:
    return fii_check(k, q).is_fii


def check_theorem1(k: GeneratedCone) -> Theorem1Report:
    """Cross-check on a finite family with full-dimensional closure:
    (a) the closure rebuilt from the extreme rays alone is the same point
    set, and (b) pointedness holds, matching full dimension.  The rebuilt
    closure contains the full-dimensional one and both are canonical facet
    lists, so (a) is list equality; (b) is the line search inside
    ``extreme_rays``, and no LP is solved."""
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
    gen_set = set(ku.unique_generators())
    rays_ok = all(r in gen_set for r in rays.rays)
    equal = closure == closure_of(GeneratedCone(rays.rays + (ku.unit_last(),)))
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
