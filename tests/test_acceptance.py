"""Acceptance gate: every criterion at its stated tolerance, one printed
pass/fail line per criterion.  Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction as F

import pytest

from closurelab import linalg
from closurelab.aggregation import (
    HULL_FACET,
    SIGN,
    AggregationSample,
    aggregate,
    classify_cuts,
    closure_approx,
)
from closurelab.cone import (
    GeneratedCone,
    check_theorem1,
    closure_of,
    fii_check,
    is_pointed,
)
from closurelab.covering import (
    CoveringInstance,
    down_set_contains,
    minimal_integer_points,
)
from closurelab.polyhedron import (HPolyhedron, Inequality, dimension, remove_redundant,
                                   sorted_unique)
from closurelab.verify import (
    brute_force_minimal_points,
    random_covering,
    random_line_cones,
    random_pointed_cones,
    random_single_row,
    random_two_row,
    suite_farkas,
)

from oracles import (down_set_box_oracle, ge, lp_is_facet_defining, lp_same_point_set,
                     projection_lemma_sides, round_trip_h_to_v, unique_generators,
                     with_unit_last)

V = linalg.vector

SEED = 20240 + 817


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def theorem1_data():
    cones = random_pointed_cones(SEED, count=50)
    assert len(cones) == 50
    reports = [check_theorem1(c) for c in cones]
    return cones, reports


def test_criterion_1_farkas_kernel():
    start = time.monotonic()
    rep = suite_farkas(SEED, count=200)
    elapsed = time.monotonic() - start
    ok = rep.passed and elapsed < 10.0
    report(1, ok, f"200 random LPs: certificates verify, duals match "
                  f"({rep.checks} checks, {elapsed:.1f}s < 10s)")


def test_criterion_2_theorem1_cross_check(theorem1_data):
    cones, reports = theorem1_data
    failures = sum(1 for r in reports if not r.passed)
    ok = failures == 0 and len(reports) == 50
    report(2, ok, f"50 pointed cones: closure rebuilt from extreme rays is "
                  f"point-set-equal ({failures} failures)")


def test_criterion_3_pointedness_matches_dimension(theorem1_data):
    cones, _ = theorem1_data
    mismatches = 0
    for cone in cones:
        if is_pointed(cone).pointed != (dimension(closure_of(cone)) == cone.n):
            mismatches += 1
    line_cones = random_line_cones(SEED, count=20)
    assert len(line_cones) == 20
    for cone in line_cones:
        pointed = is_pointed(cone).pointed
        full = dimension(closure_of(cone)) == cone.n
        if pointed or pointed != full:
            mismatches += 1
    ok = mismatches == 0
    report(3, ok, f"50 pointed + 20 line-containing cones: pointedness matches "
                  f"full dimension exactly ({mismatches} mismatches)")


def test_criterion_4_rays_come_from_generators(theorem1_data):
    cones, reports = theorem1_data
    exceptions = 0
    for cone, rep in zip(cones, reports):
        gens = set(unique_generators(with_unit_last(cone)[0]))
        if not all(r in gens for r in rep.extreme_rows):
            exceptions += 1
    ok = exceptions == 0
    report(4, ok, f"every extreme ray equals a generator up to positive "
                  f"scaling ({exceptions} exceptions)")


def test_criterion_5_fii_facet_agreement():
    disagreements = 0
    tested = 0
    for cone in random_pointed_cones(SEED + 5, count=30):
        closure = closure_of(cone)
        for g in unique_generators(cone):
            normal, rhs = g[:-1], g[-1]
            if linalg.is_zero(normal):
                continue  # the mandatory trivial generator induces no half-space
            q = Inequality(normal, rhs)
            tested += 1
            if fii_check(cone, q).is_fii != lp_is_facet_defining(closure, q):
                disagreements += 1
    standin = GeneratedCone((V([-1, 2, 7]), V([1, 2, 7]), V([0, 0, 1])))
    res = fii_check(standin, Inequality([0, 1], F(7, 2)))
    standin_ok = (not res.is_fii) and res.multipliers[:2] == (F(1, 4), F(1, 4))
    ok = disagreements == 0 and standin_ok
    report(5, ok, f"30 closures, {tested} generator inequalities: is_fii matches "
                  f"the LP facet test; stand-in gives NOT FII with (1/4, 1/4)")


def test_criterion_6_covering_form():
    start = time.monotonic()
    rng = random.Random(SEED + 6)
    bad = 0
    for _ in range(100):
        q = random_covering(rng)
        minimal = minimal_integer_points(q)
        if minimal.points != brute_force_minimal_points(q):
            bad += 1
            continue
        hull = minimal_integer_points(q).hull()
        for facet in hull.inequalities:
            if any(a < 0 for a in linalg.neg(facet.row[:-1])) or -facet.row[-1] < 0:
                bad += 1
                break
        else:
            units = tuple(sorted(linalg.unit(q.n, j) for j in range(q.n)))
            if round_trip_h_to_v(hull).rays != units:
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 60.0
    report(6, ok, f"100 covering instances: hull facets stay in covering form, "
                  f"rays are the unit vectors, minimal points match the oracle "
                  f"({bad} bad, {elapsed:.1f}s < 60s)")


def test_criterion_7_named_hull_instance():
    q = CoveringInstance(([1, 2],), (3,))
    minimal = minimal_integer_points(q)
    hull = minimal_integer_points(q).hull()
    points_ok = minimal.points == (V([0, 2]), V([1, 1]), V([3, 0]))
    facets_ok = set(hull.inequalities) == {
        ge([1, 1], 2), ge([1, 2], 3), ge([1, 0], 0), ge([0, 1], 0)}
    ok = points_ok and facets_ok
    report(7, ok, "M=[[1,2]], d=[3]: minimal points {(0,2),(1,1),(3,0)} and "
                  "facets {x1+x2>=2, x1+2x2>=3, x>=0}")


def test_criterion_8_single_row_exactness():
    rng = random.Random(SEED + 8)
    bad = 0
    for _ in range(20):
        q = random_single_row(rng)
        hull = minimal_integer_points(q).hull()
        for k in (1, 2):
            for density in (1, 4):
                ca = closure_approx(q, k, density)
                if not (ca.stabilized and lp_same_point_set(ca.polyhedron, hull)):
                    bad += 1
    ok = bad == 0
    report(8, ok, f"20 single-row instances, k in {{1,2}}, D in {{1,4}}: closure "
                  f"equals the integer hull and stabilizes ({bad} failures)")


def denominator_grid(density):
    """Independent oracle grid: every multiplier direction (p/q, 1 - p/q)
    with denominator q <= density, in primitive form."""
    out = set()
    for q in range(1, density + 1):
        for p in range(q + 1):
            out.add(linalg.primitive((F(p, q), F(q - p, q))))
    return sorted(out)


def test_criterion_9_two_row_grid_oracle():
    start = time.monotonic()
    rng = random.Random(SEED + 9)
    bad = 0
    for _ in range(10):
        q = random_two_row(rng, n=2, max_entry=4)
        ca = closure_approx(q, 1, 8)
        pool = []
        for lam in denominator_grid(8):
            agg = aggregate(q, AggregationSample((lam,)))
            pool.extend(minimal_integer_points(agg).hull().inequalities)
        oracle = remove_redundant(HPolyhedron(2, sorted_unique(pool)))
        if not lp_same_point_set(ca.polyhedron, oracle):
            bad += 1
            continue
        if ca.stabilized:
            if any(c.label not in (SIGN, HULL_FACET) for c in classify_cuts(ca)):
                bad += 1
    elapsed = time.monotonic() - start
    ok = bad == 0 and elapsed < 300.0
    report(9, ok, f"10 two-row instances at D=8: closure equals the exhaustive "
                  f"denominator-8 grid and stabilized runs are fully attributed "
                  f"({bad} bad, {elapsed:.1f}s < 300s)")


def test_criterion_10_projection_lemma():
    rng = random.Random(SEED + 10)
    bad = 0
    for _ in range(10):
        q = random_single_row(rng, n=3)
        for t in (1, 2):
            projected, closure = projection_lemma_sides(q, t)
            if projected != closure:
                bad += 1
    ok = bad == 0
    report(10, ok, f"10 single-row instances in R^3, t in {{1,2}}: projecting the "
                   f"closure equals the closure of the projection ({bad} failures)")


def test_criterion_11_down_set_dominance():
    rng = random.Random(SEED + 11)
    mismatches = 0
    for _ in range(100):
        e1 = [tuple(rng.randint(0, 4) for _ in range(2))
              for _ in range(rng.randint(1, 4))]
        e2 = [tuple(rng.randint(0, 4) for _ in range(2))
              for _ in range(rng.randint(1, 4))]
        if down_set_contains(e1, e2) != down_set_box_oracle(e1, e2):
            mismatches += 1
    ok = mismatches == 0
    report(11, ok, f"100 random pairs in [0,4]^2: down-set containment matches "
                   f"the box oracle ({mismatches} mismatches)")


def test_criterion_12_byte_identical_output(tmp_path):
    instance = tmp_path / "two.txt"
    instance.write_text(
        "kind: covering\nn: 2\nm: 2\nM: 1 2\nM: 2 1\nd: 3 3\n", encoding="utf-8")
    cmd = [sys.executable, "-m", "closurelab.cli", "closure", str(instance),
           "--k", "1", "--density", "4", "--seed", "3", "--format", "structured"]
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parent.parent / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = (first.returncode == second.returncode
          and first.stdout == second.stdout and first.stdout)
    report(12, bool(ok), "two identical closure runs produce byte-identical output")
