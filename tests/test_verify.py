"""Verification suites: deterministic seeding, failure reporting."""

import os
from fractions import Fraction as F

import pytest

from closurelab import linalg, polyhedron, verify
from closurelab.cone import GeneratedCone, is_pointed
from closurelab.covering import CoveringInstance
from closurelab.verify import (
    SuiteReport,
    brute_force_minimal_points,
    run_suite,
    suite_aggregation,
    suite_cone,
    suite_covering,
    suite_farkas,
)
from oracles import as_double_description, dd_cone_dropping_a_ray


def test_suites_pass_on_default_seeds():
    assert suite_farkas(1, count=25).passed
    assert suite_cone(1, count=6, line_count=3).passed
    assert suite_covering(1, count=10).passed
    assert suite_aggregation(1, single_count=3, pair_count=2).passed


def test_suite_is_seed_deterministic():
    a = suite_covering(42, count=8)
    b = suite_covering(42, count=8)
    assert a.checks == b.checks and a.failures == b.failures


def test_failure_reporting_and_counts():
    rep = SuiteReport("demo")
    rep.check(True, lambda: "never")
    rep.check(False, lambda: "broken thing")
    assert rep.checks == 2
    assert not rep.passed
    assert rep.failures == ["broken thing"]


def test_run_suite_all():
    reports = run_suite("all", 2) if os.environ.get("CLOSURELAB_FULL") else None
    if reports is None:
        names = [r.name for r in
                 (suite_farkas(2, count=5), suite_aggregation(2, 1, 1))]
        assert names == ["farkas", "aggregation"]
    else:
        assert [r.name for r in reports] == ["farkas", "cone", "covering", "aggregation"]


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError) as err:
        run_suite("bogus", 1)
    assert str(err.value) == ("unknown suite 'bogus'; expected one of "
                              "farkas, cone, covering, aggregation, all")


def test_covering_oracle_tests_the_int_rows(monkeypatch):
    # the box scan reads q.rows in ints: no Fraction vector per box point
    def refuse(*args, **kwargs):
        raise AssertionError("the covering oracle built a Fraction vector")

    q = CoveringInstance(([F(2, 3), 1], [0, F(1, 2)]), (F(5, 3), F(1, 2)))
    with monkeypatch.context() as m:
        m.setattr(verify.linalg, "vector", refuse)
        m.setattr(linalg, "dot", refuse)
        points = brute_force_minimal_points(q)
        report = suite_covering(3, count=10)
    assert points == ((F(0), F(2)), (F(1), F(1)))
    assert report.passed and report.checks == 80


def test_cone_draws_are_filtered_by_the_lp_not_the_dd(monkeypatch):
    # x1 <= 0 and -x1 <= 0 cut out a flat closure; x1 <= 1 a full one
    flat = GeneratedCone(((1, 0, 0), (-1, 0, 0), (0, 0, 1)))
    full = GeneratedCone(((1, 0, 1), (0, 0, 1)))
    assert not is_pointed(flat).pointed and is_pointed(full).pointed

    def refuse(rows, dim):
        raise AssertionError("the cone draws ran the DD under test")

    # every DD reader, dd_cone and each polyhedron's DD, runs this kernel
    monkeypatch.setattr(polyhedron, "_double_description", refuse)
    assert len(verify.random_pointed_cones(1, 10)) == 10


def test_suite_cone_fails_on_a_broken_double_description(monkeypatch):
    # the mutant drops a ray per row step at dim 4: on n = 3 cones it gets
    # extreme rows and dimensions wrong, which only a check outside the DD
    # sees; its zero sets are recomputed from its own rays
    monkeypatch.setattr(polyhedron, "_double_description",
                        as_double_description(dd_cone_dropping_a_ray))
    report = suite_cone(1, count=12, line_count=0)
    assert not report.passed and report.checks == 36
