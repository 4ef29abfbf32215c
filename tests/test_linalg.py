"""Rational vector/matrix helpers."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from closurelab import linalg
from closurelab.aggregation import AggregationSample
from closurelab.cone import GeneratedCone
from closurelab.covering import CoveringInstance
from closurelab.errors import ContractViolation, ParseError
from oracles import denominator_int_row, mat_vec, token_loop_parse_row, transpose, vec_mat

V = linalg.vector


def test_rational_parsing():
    assert linalg.rational("3/2") == F(3, 2)
    assert linalg.rational("-7") == F(-7)
    assert linalg.rational(5) == F(5)
    with pytest.raises(ParseError):
        linalg.rational("1.5")
    with pytest.raises(ParseError):
        linalg.rational("3/0")


def test_format_rational_is_decimal_free():
    assert linalg.format_rational(F(3, 2)) == "3/2"
    assert linalg.format_rational(F(-4)) == "-4"


# 5000 sevens: more digits than str() of an int writes by default
SEVENS = (10 ** 5000 - 1) // 9 * 7


@pytest.mark.parametrize("value, text", [
    (SEVENS, "7" * 5000),
    (-SEVENS, "-" + "7" * 5000),
    (F(SEVENS), "7" * 5000),
    (F(-SEVENS, 3), "-" + "7" * 5000 + "/3"),
    (F(1, SEVENS), "1/" + "7" * 5000),
], ids=["int", "negative int", "integral Fraction", "long numerator", "long denominator"])
def test_format_rational_prints_every_digit(value, text):
    assert linalg.format_rational(value) == text


def test_primitive_form():
    assert linalg.primitive(V([F(1, 2), F(3, 2)])) == V([1, 3])
    assert linalg.primitive(V([4, 6])) == V([2, 3])
    assert linalg.primitive(V([-2, -4])) == V([-1, -2])
    assert linalg.primitive(V([0, 0])) == V([0, 0])


def test_rank():
    assert linalg.rank([V([1, 0]), V([0, 1])]) == 2
    assert linalg.rank([V([1, 2]), V([2, 4])]) == 1
    assert linalg.rank([V([0, 0])]) == 0
    assert linalg.rank([]) == 0
    assert linalg.rank([V([1, 2, 3]), V([2, 4, 6]), V([0, 0, 1])]) == 2


def test_dimension_checks():
    with pytest.raises(ContractViolation):
        linalg.dot(V([1, 2]), V([1]))
    with pytest.raises(ContractViolation):
        linalg.unit(2, 5)


def test_parse_row_reports_position():
    with pytest.raises(ParseError) as err:
        linalg.parse_row("1 x 3", line=7)
    assert err.value.line == 7 and err.value.column == 3


def test_matrix_ops():
    # the matrix helpers are oracle code: only the Fraction references use them
    m = (V([1, 2]), V([3, 4]))
    assert mat_vec(m, V([1, 1])) == V([3, 7])
    assert vec_mat(V([1, 1]), m) == V([4, 6])
    assert transpose(m) == (V([1, 3]), V([2, 4]))


# short ASCII digit runs, leading zeros included, and one run a digit
# longer than int() reads
DIGITS = st.text("0123456789", min_size=1, max_size=5)
TOO_LONG_DIGITS = "9" * (sys.get_int_max_str_digits() + 1)
SIGNED = st.builds("{}{}".format, st.sampled_from(("", "+", "-")), DIGITS)
TOKENS = st.one_of(
    SIGNED,
    st.builds("{}/{}".format, SIGNED, DIGITS),
    # tokens the row pattern must refuse, some of which int() or
    # Fraction() would read: underscores, Arabic-Indic and fullwidth
    # digits, an exponent
    st.sampled_from(("1_0", "\u0663", "1\u0663", "\uff12", "1/+2", "1/-2", "0x1", "1e3")),
    st.sampled_from(("x", "1.5", "--1", "+", "-", "/", "1/", "/2", "1/2/3", "+-1")),
    st.just(TOO_LONG_DIGITS),
    st.builds("{}/{}".format, SIGNED, st.just(TOO_LONG_DIGITS)),
)
# tab, EM SPACE (U+2003) and the information separator U+001C are blanks
# to both str.split and the pattern's \s
BLANKS = st.lists(st.sampled_from(" \t\u2003\x1c\n\r\x0b"), max_size=2).map("".join)


@st.composite
def rows_of_tokens(draw):
    tokens = draw(st.lists(TOKENS, max_size=6))
    # an empty separator glues two tokens into one
    parts = [draw(BLANKS)]
    for tok in tokens:
        parts += [tok, draw(BLANKS)]
    return "".join(parts)


def _outcome(parse, *args):
    """The parsed row with each entry's exact type, or the error's text and place."""
    try:
        return [(type(a), a) for a in parse(*args)]
    except ParseError as exc:
        return (str(exc), exc.line, exc.column)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(rows_of_tokens(), st.sampled_from((None, 0, 1, 2, 3)), st.integers(0, 9))
@example("1 2 3", 3, 1)
@example(" 007\t-0/5\u2003+3/4\x1c", None, 2)
@example("1 1_0 2", None, 4)
@example(f"1 {TOO_LONG_DIGITS} x", None, 1)
@example("1 x " + TOO_LONG_DIGITS, None, 1)
def test_parse_row_matches_the_token_loop(text, expected_len, line):
    assert _outcome(linalg.parse_row, text, expected_len, line) == \
        _outcome(token_loop_parse_row, text, expected_len, line)


ENTRIES = st.one_of(
    st.integers(-60, 60),
    st.integers(-10 ** 30, 10 ** 30),
    st.builds(F, st.integers(-60, 60), st.integers(1, 12)),
    st.booleans(),
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(st.integers(-60, 60).map(lambda a: 6 * a), max_size=6),
                 st.lists(ENTRIES, max_size=6)))
@example([])
@example([0, 0, 0])
@example([4, -6, 10])
@example([True, 2])
@example([F(2), 4])
def test_int_row_matches_the_denominator_path(v):
    row = linalg.int_row(v)
    assert row == denominator_int_row(v)
    assert all(type(a) is int for a in row)


def _written(value: F, form: str):
    """value as an int (if integral), a "p/q" string, a bool (if 0 or 1)
    or a Fraction."""
    if form == "int" and value.denominator == 1:
        return value.numerator
    if form == "str":
        return f"{value.numerator}/{value.denominator}"
    if form == "bool" and value in (0, 1):
        return bool(value)
    return value


@st.composite
def exact_rows(draw):
    """Nonnegative rows of one width with a positive first entry (a cone's
    generators, [M | d] and a sample's multiplier rows alike), a written
    form per entry, and the place of an entry to write as a float."""
    width = draw(st.integers(2, 4))
    value = st.builds(F, st.integers(0, 9), st.integers(1, 4))
    rows = draw(st.lists(st.tuples(value.filter(bool), *[value] * (width - 1)),
                         min_size=1, max_size=3))
    forms = draw(st.lists(st.lists(st.sampled_from(("int", "str", "bool", "Fraction")),
                                   min_size=width, max_size=width),
                          min_size=len(rows), max_size=len(rows)))
    return rows, forms, (draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1)))


def _covering(rows) -> CoveringInstance:
    return CoveringInstance([r[:-1] for r in rows], [r[-1] for r in rows])


def _read(rows):
    """What GeneratedCone, CoveringInstance and AggregationSample store of
    rows, each row handed over as an iterator where one is taken."""
    q = _covering(rows)
    return (GeneratedCone(map(iter, rows)).int_generators, (q.rows, q.denominator),
            AggregationSample(tuple(map(iter, rows))).multipliers)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(exact_rows())
@example(([(F(1), F(0))], [["bool", "bool"]], (0, 1)))
@example(([(F(2), F(4), F(0))], [["int", "int", "int"]], (0, 2)))
@example(([(F(1, 2), F(1))], [["str", "bool"]], (0, 0)))
def test_constructors_read_ints_fractions_strings_and_bools_alike(case):
    # a cone and a sample read each row with linalg.int_row, a covering
    # instance reads [M | d] whole: int data takes the int path, the rest
    # goes through linalg.vector, both store the same int rows, and a
    # float anywhere is refused by vector
    rows, forms, (i, j) = case
    want = _read(rows)
    assert want[2] == tuple(tuple(denominator_int_row(r)) for r in rows)
    # a cone stores each distinct row once
    assert want[0] == tuple(dict.fromkeys(want[2]))
    flat, common = linalg.clear_denominators([a for r in rows for a in r])
    width = len(rows[0])
    assert want[1] == (tuple(tuple(flat[k:k + width]) for k in range(0, len(flat), width)),
                       common)
    assert _read([tuple(map(_written, r, f)) for r, f in zip(rows, forms)]) == want
    assert {type(a) for r in (*want[0], *want[1][0], *want[2]) for a in r} == {int}
    floated = [list(r) for r in rows]
    floated[i][j] = float(rows[i][j])
    for make in (GeneratedCone, AggregationSample, _covering):
        with pytest.raises(ContractViolation, match="cannot interpret"):
            make(tuple(map(tuple, floated)))


