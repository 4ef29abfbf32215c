"""Finitely generated cones of inequality vectors and the cutting-plane
closure they induce.

A ``GeneratedCone`` holds a finite family of nonzero vectors (alpha, beta)
in Q^(n+1), each read as the half-space alpha.x <= beta; the closure is
their intersection.  A cone stores its generators once, as distinct
primitive integer rows in first-seen order, each read once by
``linalg.int_row`` (a row of ints takes one ``gcd``; anything else goes
through ``linalg.vector``).  Extreme rays have one form wherever they
are returned: ``extreme_rays``, ``certified_extreme_rows`` and
``Theorem1Report.extreme_rows`` are sorted primitive int rows.  Every
query runs on the stored rows, with (0, ..., 0, 1) appended where
needed.  Each cone keeps its closure system, built on the first query
(``empty_hpolyhedron`` when a generator reads 0.x <= b < 0), and the
system keeps its double description (DD), so the queries on one cone
share that DD.  Extreme
rays and pointedness come from the zero sets of the polar cone's DD
(when the rows are the system's rows and (0, ..., 0, 1), that DD is the
closure system's own, read as it stands), so ``extreme_rays`` and
``check_theorem1`` solve no LP on a pointed cone and make no Fraction.
Exact LPs remain where a certificate is printed: a line, a strict
support, validity multipliers, a violating point.

For a finite family the conical hull is closed, so each extreme ray is a
generator up to positive scaling; here that holds by construction, as
the rays are selected from the generator rows.  ``check_theorem1``
checks at runtime that the extreme rows cover every facet of the
closure, and the pointedness/full-dimension equivalence.  Both sides are
read from one ``_facets`` pass over the zero sets the DD tracks, so the
facet check cannot fail on a pointed full-dimensional closure until a
check from outside the DD, such as Theorem 1 run on a closure's own cut
family (ROADMAP item 9), gives it an independent side.  The independent
checks today are the LP-reference property tests and
``certified_extreme_rows``, which finds the extreme rows by membership
LPs alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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
    _PolarDD,
    _dd_zero_sets,
    _facets,
    _from_row,
    _unit_row,
    check_implication,
    empty_hpolyhedron,
    dimension,
    remove_redundant,
)


@dataclass(frozen=True, init=False)
class GeneratedCone:
    """cone(generators) for a finite family of candidate inequality vectors.

    Generators must be nonzero; the last coordinate is the right-hand side
    of the inequality the generator encodes.  They are stored as their
    canonical primitive int rows, each distinct row once, in first-seen
    order: a repeated generator spans no new ray.
    """

    int_generators: tuple[tuple[int, ...], ...]

    def __init__(self, generators: Iterable[Sequence]):
        rows = tuple(tuple(linalg.int_row(tuple(g))) for g in generators)
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
        object.__setattr__(self, "int_generators", tuple(dict.fromkeys(rows)))

    @property
    def dim(self) -> int:
        return len(self.int_generators[0])

    @property
    def n(self) -> int:
        """Ambient dimension of the closure the generators cut out."""
        return self.dim - 1

    @property
    def has_unit_last(self) -> bool:
        return _unit_row(self.dim) in self.int_generators

    @cached_property
    def _system(self) -> HPolyhedron:
        """The closure system whose DD all cone queries read, built on the
        first query and kept with the cone: the stored rows, sorted, as
        alpha.x <= beta (each primitive row is already canonical), skipping
        0.x <= b >= 0, unit-last among them.  A row 0.x <= b < 0 makes it
        ``empty_hpolyhedron(n)``, the form an ``Inequality`` prescribes for
        emptiness."""
        rows = self.int_generators
        if any(not any(g[:-1]) and g[-1] < 0 for g in rows):
            return empty_hpolyhedron(self.n)
        return HPolyhedron(self.n, tuple(map(_from_row, sorted(g for g in rows if any(g[:-1])))))


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
    multipliers: Vector | None = None
    witness: Vector | None = None


@dataclass(frozen=True)
class FiiCheck:
    """Extreme-ray test for a valid inequality: not expressible from the
    other generators.  When it is expressible, ``multipliers`` reproduce
    the inequality vector exactly from the other stored rows of
    generators + unit-last, in order."""

    is_fii: bool
    multipliers: Vector | None = None


@dataclass(frozen=True)
class Theorem1Report:
    """check_theorem1 outcome.  ``extreme_rows`` is what the function
    ``extreme_rays`` returns for cone(generators + unit-last): sorted
    primitive int rows, each selected from the cone's own rows, so on a
    pointed cone the rays are generators by construction (the CLI prints
    ``pointed`` for that claim).  ``passed`` is also whether the closure
    rebuilt from those rays equals the full closure: whether every facet
    row is an extreme row.  Both are reads of one facet set, so on a
    pointed full-dimensional closure ``passed`` is always true until
    Theorem 1 on a closure's own cut family (ROADMAP item 9) gives it an
    independent side."""

    passed: bool
    pointed: bool
    extreme_rows: tuple[tuple[int, ...], ...]
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
    rows = [tuple(-a for a in g) + (1,) for g in k.int_generators]  # s - h.g <= 0
    for j in range(d):
        e = tuple(int(i == j) for i in range(d + 1))
        rows += [e, tuple(-a for a in e)]
    rhs = (0,) * len(k.int_generators) + (1,) * (2 * d)
    res = solve_lp(tuple(rows), rhs, (0,) * d + (1,), "max")
    if res.status is not LpStatus.OPTIMAL:
        raise InternalInvariantError("support LP is bounded and feasible")
    if res.objective > 0:
        h = res.x[:d]
        if any(dot(h, g) <= 0 for g in k.int_generators):
            raise InternalInvariantError("support vector fails substitution")
        return Pointedness(True, support=h)
    witness = _line_through(k.int_generators)
    if witness is None:
        raise InternalInvariantError("support LP and line search disagree")
    return Pointedness(False, line_witness=witness)


def _with_unit_row(rows: IntRows) -> IntRows:
    """rows, with (0, ..., 0, 1) appended when missing."""
    unit = _unit_row(len(rows[0]))
    return rows if unit in rows else rows + (unit,)


def _extreme_and_facets(rows: IntRows, dd: _PolarDD) -> tuple[IntRows, set[int]]:
    """The rows spanning extreme rays of cone(rows), sorted, and the zero
    sets of the facets of the polar cone {y : g.y <= 0 for every row g},
    from one ``_facets`` pass over the zero sets of dd, that polar's DD.
    A row tight at every ray is orthogonal to the polar, so cone(rows)
    has a line (NotPointedError, the line named by the line search).
    Otherwise the polar is full-dimensional, a row is extreme exactly
    when its face of the polar is a facet, and distinct primitive rows
    cut distinct facets."""
    zero_of, every = dd.zero_of, dd.every
    if every in zero_of.values():
        line = _line_through(rows)
        if line is None:
            raise InternalInvariantError("DD and line search disagree")
        raise NotPointedError(
            "extreme rays are only defined for pointed cones", line_witness=line)
    facets = _facets(zero_of.values(), every)
    return tuple(sorted(g for g in rows if zero_of[g] in facets)), facets


def extreme_rays(k: GeneratedCone) -> IntRows:
    """The extreme rays of cone(generators) as sorted primitive int rows,
    each a generator row, with no LP on a pointed cone.  The closure
    system's DD is the polar of its rows and unit-last, so it is read
    when the generators are exactly those, as a set; any other generators
    take one DD of their own rows."""
    rows, system = k.int_generators, k._system
    if set(rows) == {*(q.row for q in system.inequalities), _unit_row(k.dim)}:
        dd = system._dd
    else:
        dd = _dd_zero_sets(rows, k.dim)
    return _extreme_and_facets(rows, dd)[0]


def certified_extreme_rows(k: GeneratedCone) -> IntRows:
    """The extreme rows of a pointed cone(generators + unit-last), sorted
    as ``check_theorem1`` reports them, from one membership LP per row and
    no DD.  A distinct primitive row of a pointed cone spans an extreme ray
    exactly when it is not in the cone of the other rows; each answer,
    separator or multipliers, is substitution-checked by
    ``cone_membership``."""
    rows = _with_unit_row(k.int_generators)
    return tuple(sorted(g for i, g in enumerate(rows)
                        if not cone_membership(rows[:i] + rows[i + 1:], g).member))


def closure_of(k: GeneratedCone) -> HPolyhedron:
    """The set cut out by reading every generator as alpha.x <= beta,
    with (0, ..., 0, 1) supplied when missing; redundancy-eliminated.
    The result may be empty."""
    return remove_redundant(k._system)


def is_valid_for_closure(k: GeneratedCone, q: Inequality) -> ValidityCheck:
    """Validity of q over the closure, decided as membership of (alpha,
    beta) in cone(generators + unit-last).  The closure must be nonempty."""
    if q.n != k.n:
        raise ContractViolation("inequality/cone dimension mismatch")
    if k._system.is_empty:
        raise EmptyClosureError("validity over an empty closure is undefined")
    member = cone_membership(_with_unit_row(k.int_generators), q.stacked())
    if member.member:
        return ValidityCheck(True, multipliers=member.multipliers)
    # the LP keeps generator order, which fixes its witness
    imp = check_implication([_from_row(g) for g in k.int_generators if any(g[:-1])], q)
    if imp.implied:
        raise InternalInvariantError("invalidity witness fails substitution")
    return ValidityCheck(False, witness=imp.witness)


def fii_check(k: GeneratedCone, q: Inequality) -> FiiCheck:
    """Is q an extreme ray of cone(generators + unit-last)?  Exactly the
    inequalities no finite family of other valid inequalities implies.
    Requires a full-dimensional closure (read from the closure system,
    the same point set) and a valid q."""
    if dimension(k._system) != k.n:
        raise NotFullDimensionalError(
            "the extreme-ray/irredundancy correspondence assumes a "
            "full-dimensional closure")
    validity = is_valid_for_closure(k, q)
    if not validity.valid:
        raise InvalidInequalityError(
            "inequality is not valid for the closure", witness=validity.witness)
    rows = _with_unit_row(k.int_generators)
    others = tuple(g for g in rows if g != q.row)
    if others == rows:
        # q's row is no generator, so the validity LP already asked this
        return FiiCheck(False, multipliers=validity.multipliers)
    member = cone_membership(others, q.stacked())
    return FiiCheck(not member.member, multipliers=member.multipliers)


def check_theorem1(k: GeneratedCone) -> Theorem1Report:
    """Cross-check on a finite family with full-dimensional closure:
    (a) the closure rebuilt from the extreme rays of cone(generators +
    unit-last) alone is the same point set, and (b) pointedness holds,
    matching full dimension.  Each extreme row is a row of the closure
    system and a full-dimensional closure has one facet list, so (a)
    holds exactly when every facet is an extreme row.  Dimension, facets
    and rays come from the closure system's DD, read once: one
    ``_facets`` pass over its zero sets gives both the extreme rows and
    the closure's facets (the rows ``remove_redundant`` keeps), so a
    pointed cone costs one DD and no LP.  Unit-last cuts nothing.  Both
    sides of (a) are reads of that one facet set, and every facet row is
    a generator, so (a) cannot fail on a pointed full-dimensional
    closure; it guards the bookkeeping between them, not the DD."""
    system = k._system
    dd = system._dd
    if dd.dim != k.n:
        raise NotFullDimensionalError(
            "the equivalence is stated for full-dimensional closures "
            f"(found dimension {dd.dim} in R^{k.n})")
    rows = _with_unit_row(k.int_generators)
    try:
        extreme, facets = _extreme_and_facets(rows, dd)
    except NotPointedError as e:
        return Theorem1Report(
            passed=False, pointed=False, extreme_rows=(),
            detail=(f"full-dimensional closure but cone contains the line "
                    f"through {linalg.format_vector(e.line_witness)}"))
    equal = {q.row for q in system.inequalities if dd.zero_of[q.row] in facets} <= set(extreme)
    return Theorem1Report(
        passed=equal, pointed=True, extreme_rows=extreme,
        detail="" if equal else "closure rebuilt from extreme rays differs from the full closure")
