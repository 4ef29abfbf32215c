"""Instance files: one small line-oriented format for every input kind.

A document is a sequence of "key: value" lines; '#' starts a comment and
blank lines are ignored.  The first line fixes the kind, then dimensions,
then the payload rows in order:

    kind: covering          kind: cone            kind: hrep
    n: 2                    n: 2                  n: 2
    m: 2                    G: -1 0 0             H: 1 1 <= 2
    M: 1 2                  G: 0 -1 0             H: 1 0 >= 0
    M: 2 1                  G: 0 0 1
    d: 3 3

    kind: vrep              kind: pointset
    n: 2                    n: 2
    V: 0 2                  P: 1 2
    R: 1 0                  P: 0 2

All numbers are decimal-free rational tokens "p" or "p/q".  Parse errors
carry the offending line and column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .cone import GeneratedCone
from .covering import CoveringInstance
from .errors import ContractViolation, ParseError
from . import linalg
from .linalg import Vector, parse_vector
from .polyhedron import HPolyhedron, VPolyhedron, parse_le_tokens

KINDS = ("covering", "cone", "hrep", "vrep", "pointset")

Payload = Union[CoveringInstance, GeneratedCone, HPolyhedron, VPolyhedron, tuple[Vector, ...]]


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    n: int
    m: int | None
    payload: Payload


def _directives(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", lineno, 1)
        yield lineno, key.strip(), value.strip()


def _int_field(value: str, name: str, lineno: int) -> int:
    try:
        out = int(value)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {value!r}", lineno, len(name) + 3)
    if out < 1:
        raise ParseError(f"{name} must be at least 1, got {out}", lineno, len(name) + 3)
    return out


def parse_instance(text: str) -> InstanceFile:
    items = list(_directives(text))
    if not items:
        raise ParseError("empty instance file", 1, 1)
    lineno, key, value = items[0]
    if key != "kind":
        raise ParseError(f"first directive must be 'kind', got {key!r}", lineno, 1)
    if value not in KINDS:
        raise ParseError(f"unknown kind {value!r}; expected one of {', '.join(KINDS)}",
                         lineno, 7)
    kind = value

    n = None
    m = None
    rows: list[tuple[int, str, str]] = []
    for lineno, key, value in items[1:]:
        if key == "n":
            n = _int_field(value, "n", lineno)
        elif key == "m":
            m = _int_field(value, "m", lineno)
        else:
            rows.append((lineno, key, value))
    if n is None:
        raise ParseError("missing 'n' directive", items[-1][0], 1)

    try:
        payload = _build(kind, n, m, rows)
    except ContractViolation as exc:
        raise ParseError(str(exc), rows[0][0] if rows else items[-1][0], 1)
    return InstanceFile(kind, n, m if kind == "covering" else None, payload)


def _expect_key(kind: str, key: str, allowed: tuple[str, ...], lineno: int) -> None:
    if key not in allowed:
        raise ParseError(
            f"kind {kind!r} does not accept {key!r} lines (expected {', '.join(allowed)})",
            lineno, 1)


def _build(kind: str, n: int, m: int | None, rows) -> Payload:
    if kind == "covering":
        matrix_rows = []
        demand = None
        for lineno, key, value in rows:
            _expect_key(kind, key, ("M", "d"), lineno)
            if key == "M":
                matrix_rows.append(parse_vector(value, n, lineno))
            else:
                demand = (parse_vector(value, None, lineno), lineno)
        if m is None:
            raise ParseError("covering instance needs an 'm' directive",
                             rows[0][0] if rows else 1, 1)
        if len(matrix_rows) != m:
            raise ParseError(f"expected {m} 'M' rows, found {len(matrix_rows)}",
                             rows[-1][0] if rows else 1, 1)
        if demand is None:
            raise ParseError("covering instance needs a 'd' line",
                             rows[-1][0] if rows else 1, 1)
        d, dline = demand
        if len(d) != m:
            raise ParseError(f"'d' needs {m} entries, found {len(d)}", dline, 1)
        return CoveringInstance(tuple(matrix_rows), d)

    if kind == "cone":
        gens = []
        for lineno, key, value in rows:
            _expect_key(kind, key, ("G",), lineno)
            gens.append(parse_vector(value, n + 1, lineno))
        if not gens:
            raise ParseError("cone instance needs at least one 'G' line", 1, 1)
        return GeneratedCone(tuple(gens))

    if kind == "hrep":
        ineqs = []
        for lineno, key, value in rows:
            _expect_key(kind, key, ("H",), lineno)
            ineqs.append(parse_le_tokens(value, n, lineno))
        return HPolyhedron(n, tuple(ineqs))

    if kind == "vrep":
        vertices = []
        rays = []
        for lineno, key, value in rows:
            _expect_key(kind, key, ("V", "R"), lineno)
            vec = parse_vector(value, n, lineno)
            (vertices if key == "V" else rays).append(vec)
        if not vertices and not rays:
            raise ParseError("vrep instance needs at least one 'V' or 'R' line", 1, 1)
        return VPolyhedron(n, tuple(vertices), tuple(rays))

    points = []
    for lineno, key, value in rows:
        _expect_key(kind, key, ("P",), lineno)
        points.append(parse_vector(value, n, lineno))
    return tuple(points)


def format_covering(q: CoveringInstance) -> str:
    lines = ["kind: covering", f"n: {q.n}", f"m: {q.m}"]
    lines.extend(f"M: {linalg.format_vector(row)}" for row in q.M)
    lines.append(f"d: {linalg.format_vector(q.d)}")
    return "\n".join(lines) + "\n"


def format_cone(k: GeneratedCone) -> str:
    lines = ["kind: cone", f"n: {k.n}"]
    lines.extend(f"G: {linalg.format_vector(g)}" for g in k.generators)
    return "\n".join(lines) + "\n"
