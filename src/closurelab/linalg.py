"""Exact rational scalars and vectors, and the integer-row elimination
core the solvers run on.

The toolkit takes ints, ``fractions.Fraction``s and ``"p/q"`` strings and
never rounds.  Computed answers (certificates, LP points, vertices,
witnesses) and the views of stored rows are Fractions in lowest terms with
positive denominator; the stored rows (``Inequality.row``,
``MinimalPointSet.points``, ``CoveringInstance.rows``,
``GeneratedCone.int_generators``, and the extreme rows of
``cone.extreme_rays`` and ``Theorem1Report``) are int tuples, and
``format_rational`` prints either kind in full, however many digits it
has.  Vectors are immutable tuples of Fractions, and the helpers are
pure functions.  Inside, the
simplex (``lp``), ``rank`` and double description (``polyhedron.dd_cone``)
work on primitive integer rows (``int_row``, ``lowest_terms``) and
eliminate fraction-free with ``p*a - f*b`` over the row gcd
(``combine``).  A positive scale changes no sign test or ratio
comparison, so they make the decisions the Fraction code would.  The hull
pipeline (aggregation, the covering scan, the double description and the
facet rows of ``_v_to_h_rows``) and the cone queries stay in integer rows
from end to end, and store them: a ``CoveringInstance`` keeps [M | d]
times one common denominator, an ``Inequality`` its primitive row, a
``MinimalPointSet`` its int points and a ``GeneratedCone`` its generator
rows.  The first three make their Fractions on read.  ``parse_row``
keeps integral input as ints and makes Fractions of the rest.

Rows of ints cost integer work only.  ``parse_row`` reads a line in one
pass (one pattern checks it, ``int`` converts the split tokens) and walks
it token by token only to place an error.  ``int_row`` is the one reader
of an exact-rational row a constructor takes in, and tests its types
once: an int row goes straight to one ``gcd``, and only other rows go
through ``vector`` and ``clear_denominators``.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NoReturn, Sequence, Union

from .errors import ContractViolation, InternalInvariantError, ParseError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
IntRow = list[int]

RationalLike = Union[Fraction, int, str]

_RATIONAL_TOKEN = re.compile(r"^[+-]?[0-9]+(/[1-9][0-9]*)?$")
# a whole row of such tokens, blank-separated, blanks around it allowed
_RATIONAL_ROW = re.compile(r"(?:\s*[+-]?[0-9]+(?:/[1-9][0-9]*)?(?!\S))*\s*")


def rational(value: RationalLike, column: int = 0) -> Fraction:
    """Coerce an int, Fraction, or decimal-free "p/q" string to a Fraction.
    A string's ParseError carries ``column``, where it stands in its line."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_TOKEN.match(token):
            raise ParseError(f"not a rational token (expected 'p' or 'p/q'): {value!r}",
                             column=column)
        try:
            return Fraction(token)
        except ValueError:
            raise number_too_long(column=column) from None
    raise ContractViolation(f"cannot interpret {value!r} as an exact rational")


def format_rational(q: Fraction | int) -> str:
    """Serialize as "p" or "p/q", never a decimal, with every digit: where
    ``str`` refuses a part longer than sys.get_int_max_str_digits(), the
    part is printed by ``Decimal``, which converts an int exactly."""
    try:
        return str(q)
    except ValueError:
        p = str(Decimal(q.numerator))
        return p if q.denominator == 1 else f"{p}/{Decimal(q.denominator)}"


def vector(entries: Iterable[RationalLike]) -> Vector:
    return tuple(rational(e) for e in entries)


def zeros(n: int) -> Vector:
    return (Fraction(0),) * n


def unit(n: int, j: int) -> Vector:
    if not 0 <= j < n:
        raise ContractViolation(f"unit vector index {j} out of range for dimension {n}")
    return tuple(Fraction(1 if i == j else 0) for i in range(n))


def check_dim(v: Sequence, n: int, what: str = "vector") -> None:
    if len(v) != n:
        raise ContractViolation(f"{what} has length {len(v)}, expected {n}")


def dot(u: Vector, v: Vector) -> Fraction:
    check_dim(v, len(u))
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


def primitive(v: Vector) -> Vector:
    """Scale by the unique positive rational that makes the entries coprime
    integers.  The zero vector is returned unchanged."""
    return tuple(map(Fraction, int_row(v)))


def rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Exact rank of rational or integer rows, by fraction-free Gaussian
    elimination on their primitive integer forms."""
    work = [r for r in map(int_row, rows) if any(r)]
    r = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(r, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        pr = work[r]
        for i in range(r + 1, len(work)):
            if work[i][col]:
                work[i] = combine(pr[col], work[i], work[i][col], pr)
        r += 1
        if r == len(work):
            break
    return r


# ---------------------------------------------------------------------------
# integer-row core


def clear_denominators(v: Sequence[Fraction | int]) -> tuple[IntRow, int]:
    """The integer row L*v and L, the lcm of v's denominators: L = 1 and
    the entries unchanged for integral v.  Accepts ints."""
    common = lcm(*(a.denominator for a in v))
    return [a.numerator * (common // a.denominator) for a in v], common


def int_row(v: Sequence[RationalLike]) -> IntRow:
    """The primitive integer row c*v for the unique rational c > 0 (the
    zero row for a zero input).  A row of ints (by exact type) is divided
    by its gcd.  Any other row is read by ``vector``, which takes exact
    rationals only and bools as 0 and 1, and has its denominators cleared."""
    if {*map(type, v)} <= {int}:
        g = gcd(*v)
        return [a // g for a in v] if g > 1 else list(v)
    return lowest_terms(clear_denominators(vector(v))[0])


def lowest_terms(row: IntRow) -> IntRow:
    """The integer row divided by the gcd of its entries; a row already in
    lowest terms, or zero, is returned as it is."""
    g = gcd(*row)
    return [a // g for a in row] if g > 1 else row


def combine(p: int, a: Sequence[int], f: int, b: Sequence[int]) -> IntRow:
    """p*a - f*b divided by the gcd of its entries: a positive multiple of
    p*a - f*b in lowest terms.  With p = b[j] and f = a[j] it clears
    column j of a against the pivot row b."""
    return lowest_terms([p * x - f * y for x, y in zip(a, b)])


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def format_vector(v: Vector) -> str:
    return " ".join(map(format_rational, v))


def number_too_long(line: int = 0, column: int = 0) -> ParseError:
    """The error for a digit run that int() refuses to read: longer than
    the interpreter's sys.get_int_max_str_digits()."""
    return ParseError(f"number has more than {sys.get_int_max_str_digits()} digits",
                      line, column)


def parse_row(text: str, expected_len: int | None = None,
              line: int = 0) -> tuple[int | Fraction, ...]:
    """Blank-separated rational tokens: an integral token "p" as an int,
    only "p/q" as a Fraction.  Error columns count from 1 at the first
    character of ``text``.

    The line is read in one pass: one pattern checks it whole, and
    ``str.split`` (whose blanks are the pattern's) cuts the tokens for
    ``int``, or ``Fraction`` where a "/" appears.  Only a line that fails,
    by a bad token or by a number longer than ``int`` reads, is walked
    token by token to place the error at its first bad token."""
    out = None
    if _RATIONAL_ROW.fullmatch(text):
        tokens = text.split()
        try:
            out = (tuple(map(int, tokens)) if "/" not in text else
                   tuple(Fraction(t) if "/" in t else int(t) for t in tokens))
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    if out is None:
        _raise_at_bad_token(text, line)
    if expected_len is not None and len(out) != expected_len:
        raise ParseError(f"expected {expected_len} rational tokens, found {len(out)}", line, 1)
    return out


def _raise_at_bad_token(text: str, line: int) -> NoReturn:
    """The ParseError for the first token of text that is not a rational
    token, or that holds a number longer than ``int`` reads."""
    for tok in re.finditer(r"\S+", text):
        if not _RATIONAL_TOKEN.match(tok[0]):
            raise ParseError(f"not a rational token: {tok[0]!r}", line, tok.start() + 1)
        try:
            Fraction(tok[0]) if "/" in tok[0] else int(tok[0])
        except ValueError:
            raise number_too_long(line, tok.start() + 1) from None
    raise InternalInvariantError(f"the row pattern rejects a row of rational tokens: {text!r}")
