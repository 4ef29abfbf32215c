"""Rational vector/matrix helpers."""

from fractions import Fraction as F

import pytest

from closurelab import linalg
from closurelab.errors import ContractViolation, ParseError
from oracles import solve_square

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


def test_primitive_form():
    assert linalg.primitive(V([F(1, 2), F(3, 2)])) == V([1, 3])
    assert linalg.primitive(V([4, 6])) == V([2, 3])
    assert linalg.primitive(V([-2, -4])) == V([-1, -2])
    assert linalg.primitive(V([0, 0])) == V([0, 0])


def test_parallel():
    assert linalg.parallel(V([2, 4]), V([1, 2]))
    assert not linalg.parallel(V([2, 4]), V([-1, -2]))


def test_rank():
    assert linalg.rank([V([1, 0]), V([0, 1])]) == 2
    assert linalg.rank([V([1, 2]), V([2, 4])]) == 1
    assert linalg.rank([V([0, 0])]) == 0
    assert linalg.rank([]) == 0
    assert linalg.rank([V([1, 2, 3]), V([2, 4, 6]), V([0, 0, 1])]) == 2


def test_solve_square():
    # solve_square is oracle code: only brute_force_vertices uses it
    assert solve_square((V([2, 0]), V([0, 4])), V([1, 2])) == (F(1, 2), F(1, 2))
    assert solve_square((V([1, 2]), V([2, 4])), V([1, 2])) is None


def test_dimension_checks():
    with pytest.raises(ContractViolation):
        linalg.dot(V([1, 2]), V([1]))
    with pytest.raises(ContractViolation):
        linalg.matrix([[1, 2], [1]])
    with pytest.raises(ContractViolation):
        linalg.unit(2, 5)


def test_parse_vector_reports_position():
    with pytest.raises(ParseError) as err:
        linalg.parse_vector("1 x 3", line=7)
    assert err.value.line == 7 and err.value.column == 3


def test_matrix_ops():
    m = linalg.matrix([[1, 2], [3, 4]])
    assert linalg.mat_vec(m, V([1, 1])) == V([3, 7])
    assert linalg.vec_mat(V([1, 1]), m) == V([4, 6])
    assert linalg.transpose(m) == linalg.matrix([[1, 3], [2, 4]])
