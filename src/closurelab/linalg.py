"""Exact rational scalars, vectors, and matrices, and the integer-row
elimination core the solvers run on.

Every number the toolkit accepts or returns is a ``fractions.Fraction``:
arbitrary precision, always in lowest terms with positive denominator, no
rounding anywhere.  Vectors are tuples of Fractions and matrices are
tuples of row vectors; both are immutable, so all operations are pure
functions.  Inside, the simplex (``lp``), ``rank`` and double description
(``polyhedron.dd_cone``) work on primitive integer rows (``int_row``,
``lowest_terms``) and eliminate fraction-free with ``p*a - f*b`` over the
row gcd (``combine``).  A positive scale changes no sign test or ratio
comparison, so they make the decisions the Fraction code would.  The hull
pipeline (aggregation, the covering scan, the double description and the
facet rows of ``v_to_h``) stays in integer rows from end to end; Fractions
are made only where a value leaves it through the API.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence, Union

from .errors import ContractViolation, ParseError

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]
IntRow = list[int]

RationalLike = Union[Fraction, int, str]

_RATIONAL_TOKEN = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rational(value: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or decimal-free "p/q" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        if not _RATIONAL_TOKEN.match(token):
            raise ParseError(f"not a rational token (expected 'p' or 'p/q'): {value!r}")
        return Fraction(token)
    raise ContractViolation(f"cannot interpret {value!r} as an exact rational")


def format_rational(q: Fraction) -> str:
    """Serialize as "p" or "p/q", never a decimal."""
    return str(q)


def vector(entries: Iterable[RationalLike]) -> Vector:
    return tuple(rational(e) for e in entries)


def matrix(rows: Iterable[Iterable[RationalLike]]) -> Matrix:
    out = tuple(vector(row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ContractViolation("matrix rows have unequal lengths")
    return out


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


def add(u: Vector, v: Vector) -> Vector:
    check_dim(v, len(u))
    return tuple(a + b for a, b in zip(u, v))


def sub(u: Vector, v: Vector) -> Vector:
    check_dim(v, len(u))
    return tuple(a - b for a, b in zip(u, v))


def scale(c: RationalLike, v: Vector) -> Vector:
    c = rational(c)
    return tuple(c * a for a in v)


def neg(v: Vector) -> Vector:
    return tuple(-a for a in v)


def is_zero(v: Vector) -> bool:
    return all(a == 0 for a in v)


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


def int_row(v: Sequence[Fraction | int]) -> IntRow:
    """The primitive integer row c*v for the unique rational c > 0 (the
    zero row for a zero input).  Accepts ints, whose denominator is 1."""
    common = reduce(lcm, (a.denominator for a in v), 1)
    return lowest_terms([a.numerator * (common // a.denominator) for a in v])


def lowest_terms(row: IntRow) -> IntRow:
    """The integer row divided by the gcd of its entries; a row already in
    lowest terms, or zero, is returned as it is."""
    g = reduce(gcd, row, 0)
    return [a // g for a in row] if g > 1 else row


def combine(p: int, a: Sequence[int], f: int, b: Sequence[int]) -> IntRow:
    """p*a - f*b divided by the gcd of its entries: a positive multiple of
    p*a - f*b in lowest terms.  With p = b[j] and f = a[j] it clears
    column j of a against the pivot row b."""
    return lowest_terms([p * x - f * y for x, y in zip(a, b)])


def int_dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def format_vector(v: Vector) -> str:
    return " ".join(format_rational(a) for a in v)


def parse_vector(text: str, expected_len: int | None = None, line: int = 0) -> Vector:
    tokens = text.split()
    out = []
    col = 1
    for tok in tokens:
        if not _RATIONAL_TOKEN.match(tok):
            raise ParseError(f"not a rational token: {tok!r}", line, col)
        out.append(Fraction(tok))
        col += len(tok) + 1
    v = tuple(out)
    if expected_len is not None and len(v) != expected_len:
        raise ParseError(f"expected {expected_len} rational tokens, found {len(v)}", line, 1)
    return v
