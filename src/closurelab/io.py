"""Instance files: one small line-oriented format for both input kinds.

A document is a sequence of "key: value" lines; '#' starts a comment and
blank lines are ignored.  The first line fixes the kind, then dimensions,
then the payload rows in order:

    kind: covering          kind: cone
    n: 2                    n: 2
    m: 2                    G: -1 0 0
    M: 1 2                  G: 0 -1 0
    M: 2 1                  G: 0 0 1
    d: 3 3

All numbers are decimal-free rational tokens "p" or "p/q".  Parse errors
carry the offending line and column.  Both kinds are read with
``linalg.parse_row``, so an integral token stays an int from the file to
the int rows a cone or covering instance stores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .cone import GeneratedCone
from .covering import CoveringInstance
from .errors import ContractViolation, ParseError
from . import linalg
from .linalg import parse_row

KINDS = ("covering", "cone")


@dataclass(frozen=True)
class InstanceFile:
    kind: str
    payload: CoveringInstance | GeneratedCone


_LINE_BREAK = re.compile(r"\r\n?|\n")


def _directives(text: str):
    """(line number, key, key column, value) per directive.  Lines end at
    CR, LF or CRLF only; str.splitlines would also break at form feeds,
    U+2028 and other characters that a row reads as blanks.  The value is
    left in place, its line as typed with the key and ':' blanked, so
    parse-error columns count in the raw line."""
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise ParseError("expected 'key: value'", lineno, 1)
        yield lineno, key.strip(), _column(key), " " * (len(key) + 1) + value


def _column(value: str) -> int:
    """Column of the first character of an in-place key or value."""
    return len(value) - len(value.lstrip()) + 1


_ASCII_INT = re.compile(r"[+-]?[0-9]+")


def is_ascii_int(text: str) -> bool:
    """Is text an optionally signed run of ASCII digits, up to surrounding
    whitespace?  int() would also read '1_0' and other scripts' digits."""
    return _ASCII_INT.fullmatch(text.strip()) is not None


def _int_field(value: str, name: str, lineno: int) -> int:
    if not is_ascii_int(value):
        raise ParseError(f"{name} must be an integer, got {value.strip()!r}",
                         lineno, _column(value))
    try:
        # int() reads no U+001C..U+001F, which strip() and rows read as blanks
        out = int(value.strip())
    except ValueError:
        raise linalg.number_too_long(lineno, _column(value)) from None
    if out < 1:
        raise ParseError(f"{name} must be at least 1, got {out}", lineno, _column(value))
    return out


def parse_instance(text: str) -> InstanceFile:
    items = list(_directives(text))
    if not items:
        raise ParseError("empty instance file", 1, 1)
    lineno, key, column, value = items[0]
    if key != "kind":
        raise ParseError(f"first directive must be 'kind', got {key!r}", lineno, column)
    kind = value.strip()
    if kind not in KINDS:
        raise ParseError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}",
                         lineno, _column(value))

    sizes: dict[str, int] = {}
    rows: list[tuple[int, str, int, str]] = []
    for lineno, key, column, value in items[1:]:
        if key == "n" or (key == "m" and kind == "covering"):
            if key in sizes:
                raise ParseError(f"repeated {key!r} line", lineno, column)
            sizes[key] = _int_field(value, key, lineno)
        else:
            rows.append((lineno, key, column, value))
    n, m = sizes.get("n"), sizes.get("m")
    if n is None:
        raise ParseError("missing 'n' directive", items[-1][0], 1)

    try:
        payload = _build(kind, n, m, rows)
    except ContractViolation as exc:
        raise _data_error(exc, rows)
    return InstanceFile(kind, payload)


def _data_error(exc: ContractViolation, rows) -> ParseError:
    """A payload constructor's ContractViolation, placed at the token that
    holds the bad value, or at its row's first token when the whole row is
    at fault.  Each 'M' or 'G' line is one row of M or of the generators;
    the one 'd' line holds the demand vector.  An error that names no
    datum is placed at the first payload row."""
    if not exc.at:
        return ParseError(str(exc), rows[0][0], 1)
    name, *path = exc.at
    if name == "d":
        path.insert(0, 0)
    key = "G" if name == "generators" else name
    lineno, _, _, value = [row for row in rows if row[1] == key][path[0]]
    token = list(re.finditer(r"\S+", value))[path[1] if len(path) > 1 else 0]
    return ParseError(str(exc), lineno, token.start() + 1)


def _expect_key(kind: str, key: str, allowed: tuple[str, ...], lineno: int,
                column: int) -> None:
    if key not in allowed:
        raise ParseError(
            f"kind {kind!r} does not accept {key!r} lines (expected {', '.join(allowed)})",
            lineno, column)


def _build(kind: str, n: int, m: int | None, rows) -> CoveringInstance | GeneratedCone:
    if kind == "covering":
        matrix_rows = []
        demand = None
        for lineno, key, column, value in rows:
            _expect_key(kind, key, ("M", "d"), lineno, column)
            if key == "M":
                matrix_rows.append(parse_row(value, n, lineno))
            elif demand is not None:
                raise ParseError("repeated 'd' line", lineno, column)
            else:
                demand = (parse_row(value, None, lineno), lineno)
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

    gens = []
    for lineno, key, column, value in rows:
        _expect_key(kind, key, ("G",), lineno, column)
        gens.append(parse_row(value, n + 1, lineno))
    if not gens:
        raise ParseError("cone instance needs at least one 'G' line", 1, 1)
    return GeneratedCone(tuple(gens))


def format_covering(q: CoveringInstance) -> str:
    lines = ["kind: covering", f"n: {q.n}", f"m: {q.m}"]
    lines.extend(f"M: {linalg.format_vector(row)}" for row in q.M)
    lines.append(f"d: {linalg.format_vector(q.d)}")
    return "\n".join(lines) + "\n"


def format_cone(k: GeneratedCone) -> str:
    lines = ["kind: cone", f"n: {k.n}"]
    lines.extend(f"G: {linalg.format_vector(g)}" for g in k.int_generators)
    return "\n".join(lines) + "\n"
