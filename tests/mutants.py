"""Mutation check for the fast paths: each mutant is a one-line change to
the library that the tests named with it must notice.

Run from the root of a checkout (pytest does not collect this file):

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # only the named ones

Each mutant is applied to a fresh copy of the checkout in a temporary
directory, and its tests run there under ``pytest -x``.  A mutant is
killed when the tests fail, and survives when they pass; the tests
must pass on the checkout itself, as the tier-1 run checks.  The exit
code is 0 exactly when every mutant is killed.  Equivalent mutants, whose
change cannot alter any answer, are listed with the reason and not run;
their old text is still checked, so the list follows the code.

A fast path added later gets at least one mutant here.  A surviving
mutant that is not equivalent calls for a test that kills it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "instances", "conftest.py", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    # _double_description: the incremental double description behind
    # dd_cone and every polyhedron's DD.  Without the containment test the
    # rays still generate the polar but include non-extreme ones; zero-set
    # containment between rows is the same on such a list, so the cone
    # answers cannot show it.  The hull's facets, read off the rays, do,
    # and so does the rank of each ray's tight rows
    Mutant("dd_cone-no-containment-test", "src/closurelab/polyhedron.py",
           "if common.bit_count() < need or any(",
           "if common.bit_count() < need or False and any(",
           ("tests/test_covering.py", "tests/test_polyhedron.py")),
    Mutant("dd_cone-zero-ray-misses-row", "src/closurelab/polyhedron.py",
           "new_zs = [zs[i] | bit for i, _ in zero]",
           "new_zs = [zs[i] for i, _ in zero]",
           ("tests/test_cone.py",)),
    Mutant("dd_cone-hit-line-rays-miss-row", "src/closurelab/polyhedron.py",
           "zs = [z | bit for z in zs] + [bit - 1]",
           "zs = list(zs) + [bit - 1]",
           ("tests/test_cone.py",)),
    Mutant("dd_cone-line-projection-sign", "src/closurelab/polyhedron.py",
           "combine(d, l, -vals[j], star) if vals[j] else l",
           "combine(d, l, vals[j], star) if vals[j] else l",
           ("tests/test_cone.py",)),
    # the hand-off: the zero sets the double description tracks, read per
    # row; a row read through its neighbour's bit, or a zero row read as
    # tight at no ray, gives the wrong faces
    Mutant("dd-hand-off-row-reads-next-bit", "src/closurelab/polyhedron.py",
           "bits.append(bit)",
           "bits.append(bit << 1)",
           ("tests/test_polyhedron.py",)),
    Mutant("dd-hand-off-zero-row-tight-nowhere", "src/closurelab/polyhedron.py",
           "bits.append(None)",
           "bits.append(0)",
           ("tests/test_polyhedron.py",)),
    # the all-rays mask every DD reader derives from the rays: one bit too
    # high, no row is tight at every ray, so no implicit equality is found
    Mutant("polar-dd-every-one-bit-high", "src/closurelab/polyhedron.py",
           "return (1 << len(self.rays)) - 1",
           "return 1 << len(self.rays)",
           ("tests/test_polyhedron.py",)),
    # the covering scan and the lower chains that feed the hull
    Mutant("scan-fixed-row-start-floor", "src/closurelab/covering.py",
           "first = max(first, -(-short // a) if a else width)",
           "first = max(first, short // a if a else width)",
           ("tests/test_covering.py",)),
    # CoveringInstance reads [M | d] in one pass: one type test for the
    # whole data, then the sign checks on the stored ints
    Mutant("covering-keeps-non-int-data", "src/closurelab/covering.py",
           "if not {*map(type, chain.from_iterable(rows))} <= {int}:",
           "if False:",
           ("tests/test_covering.py",)),
    Mutant("covering-skips-demand-sign", "src/closurelab/covering.py",
           "if row[-1] < 0:",
           "if False:",
           ("tests/test_covering.py",)),
    Mutant("lower-chains-keep-upper-side", "src/closurelab/covering.py",
           "(b[-2] - a[-2]) * (c[-1] - a[-1]) > (b[-1] - a[-1]) * (c[-2] - a[-2])",
           "(b[-2] - a[-2]) * (c[-1] - a[-1]) < (b[-1] - a[-1]) * (c[-2] - a[-2])",
           ("tests/test_covering.py",)),
    Mutant("lower-chains-runs-span-prefixes", "src/closurelab/covering.py",
           "groupby(points, key=itemgetter(slice(-2)))",
           "groupby(points, key=itemgetter(slice(-3)))",
           ("tests/test_covering.py",)),
    # the plane hull read off the lower chain with no DD: the x1 >= row
    # placed at the chain's last vertex, and an edge normal left unreduced
    Mutant("plane-hull-x1-row-at-last-vertex", "src/closurelab/covering.py",
           "rows = [(-1, 0, -lower[0][0]), (0, -1, -lower[-1][1])]",
           "rows = [(-1, 0, -lower[-1][0]), (0, -1, -lower[-1][1])]",
           ("tests/test_covering.py",)),
    Mutant("plane-hull-edge-skips-gcd", "src/closurelab/covering.py",
           "g = gcd(u, v)",
           "g = 1",
           ("tests/test_covering.py",)),
    # _facets, the facet rule both remove_redundant and _extreme_rows read:
    # kept whole, it keeps non-facets; reversed, it keeps the least faces
    Mutant("remove-redundant-keeps-non-facets", "src/closurelab/polyhedron.py",
           "return {z for z in faces if not any(z != f and z & f == z for f in faces)}",
           "return faces",
           ("tests/test_polyhedron.py",)),
    Mutant("extreme-rows-reversed-containment", "src/closurelab/polyhedron.py",
           "return {z for z in faces if not any(z != f and z & f == z for f in faces)}",
           "return {z for z in faces if not any(z != f and z & f == f for f in faces)}",
           ("tests/test_cone.py",)),
    # remove_redundant's sequential scan on a flat input
    Mutant("remove-redundant-flat-keeps-all", "src/closurelab/polyhedron.py",
           "if _holds(*dd_cone(others + [_unit_row(p.n + 1)], p.n + 1), kept[i].row):",
           "if False:",
           ("tests/test_polyhedron.py",)),
    # _v_to_h_rows: the facets read off the polar's rays
    Mutant("v-to-h-keeps-trivial-row", "src/closurelab/polyhedron.py",
           "tuple(map(_from_row, [g for g in rays if any(g[:-1])]))",
           "tuple(map(_from_row, list(rays)))",
           ("tests/test_covering.py",)),
    # GeneratedCone stores each distinct generator once; every query reads
    # the stored rows, so a repeat would be a second copy of one ray
    Mutant("cone-keeps-repeated-generators", "src/closurelab/cone.py",
           'object.__setattr__(self, "int_generators", tuple(dict.fromkeys(rows)))',
           'object.__setattr__(self, "int_generators", rows)',
           ("tests/test_cone.py",)),
    # _extreme_rows' sorted answer, and extreme_rays reading the
    # closure system's DD only for exactly its rows and unit-last
    Mutant("extreme-rows-unsorted", "src/closurelab/cone.py",
           "return tuple(sorted(g for g in rows if zero_of[g] in facets))",
           "return tuple((g for g in rows if zero_of[g] in facets))",
           ("tests/test_cone.py",)),
    Mutant("polar-zero-sets-reuse-on-subset", "src/closurelab/cone.py",
           "if set(rows) == {*(q.row for q in system.inequalities), _unit_row(k.dim)}:",
           "if set(rows) <= {*(q.row for q in system.inequalities), _unit_row(k.dim)}:",
           ("tests/test_cone.py",)),
    # fii_check asks a generator only whether the other rows span it, and
    # any other target only the validity LP
    Mutant("fii-generator-test-inverted", "src/closurelab/cone.py",
           "if q.row not in rows:",
           "if q.row in rows:",
           ("tests/test_cone.py",)),
    # the doubling pass: the density-2D intersection always lies in the
    # density-D approximation, so only the other containment tests anything
    Mutant("stabilized-containment-reversed", "src/closurelab/aggregation.py",
           "stabilized = is_subset(poly, _pooled(\n"
           "        q.n, _hulls_for(q, sample_multipliers(q.m, k, 2 * density), built, by_points)))",
           "stabilized = is_subset(_pooled(\n"
           "        q.n, _hulls_for(q, sample_multipliers(q.m, k, 2 * density), built, by_points)),"
           " poly)",
           ("tests/test_aggregation.py",)),
    # classify_cuts reads a sign row only as -x_j <= 0
    Mutant("sign-constraint-any-unit-row", "src/closurelab/aggregation.py",
           "return rhs == 0 and sum(1 for a in normal if a) == 1 and min(normal) == -1",
           "return rhs == 0 and sum(1 for a in normal if a) == 1",
           ("tests/test_aggregation.py",)),
    # the front end's fast paths: an int row divided by its gcd (any other
    # row read by vector, which refuses a float), a row read whole once the
    # pattern accepts it, and argv handed to the command's parser when it
    # reads every argument
    Mutant("int-row-skips-gcd", "src/closurelab/linalg.py",
           "return [a // g for a in v] if g > 1 else list(v)",
           "return list(v)",
           ("tests/test_linalg.py",)),
    Mutant("int-row-skips-vector", "src/closurelab/linalg.py",
           "return lowest_terms(clear_denominators(vector(v))[0])",
           "return lowest_terms(clear_denominators(v)[0])",
           ("tests/test_linalg.py",)),
    Mutant("parse-row-skips-pattern", "src/closurelab/linalg.py",
           "if _RATIONAL_ROW.fullmatch(text):",
           "if True:",
           ("tests/test_linalg.py",)),
    Mutant("dispatch-ignores-leftover-args", "src/closurelab/cli.py",
           "        if not rest:\n",
           "        if True:\n",
           ("tests/test_cli.py",)),
    # format_rational's fallback for parts longer than str() writes
    Mutant("format-rational-drops-long-denominator", "src/closurelab/linalg.py",
           'return p if q.denominator == 1 else f"{p}/{Decimal(q.denominator)}"',
           'return p if q.denominator else f"{p}/{Decimal(q.denominator)}"',
           ("tests/test_linalg.py",)),
)

# (name, file, old, new, why no answer can change)
EQUIVALENT = (
    ("dd_cone-weaker-size-pretest", "src/closurelab/polyhedron.py",
     "if common.bit_count() < need or any(",
     "if common.bit_count() < need - 1 or any(",
     "the containment test alone decides adjacency (Fukuda & Prodon 1996, "
     "Prop. 7); the size pretest only prunes pairs it would reject"),
)


def _mutated(file: str, old: str, new: str) -> str:
    """The checkout's file with old replaced by new; old must occur once."""
    text = (ROOT / file).read_text(encoding="utf-8")
    count = text.count(old)
    if count != 1:
        raise SystemExit(f"{file}: the old text occurs {count} times, expected once: {old!r}")
    return text.replace(old, new)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def run(mutant: Mutant) -> tuple[str, float]:
    """'killed', 'SURVIVED' or 'ERROR' (pytest could not run the tests),
    and the seconds the tests took."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        _copy(tree)
        (tree / mutant.file).write_text(_mutated(mutant.file, mutant.old, mutant.new),
                                        encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tree, env=env, capture_output=True, text=True)
        took = time.perf_counter() - start
    # pytest exits 1 when a test failed; other nonzero codes mean it could not run
    verdict = {0: "SURVIVED", 1: "killed"}.get(proc.returncode, "ERROR")
    if verdict == "ERROR":
        print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return verdict, took


def main(argv: list[str]) -> int:
    names = {m.name for m in MUTANTS} | {e[0] for e in EQUIVALENT}
    unknown = set(argv) - names
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    # the equivalent mutants must still apply to the code they describe
    for _, file, old, new, _ in EQUIVALENT:
        _mutated(file, old, new)
    failed = []
    for m in MUTANTS:
        if argv and m.name not in argv:
            continue
        verdict, took = run(m)
        print(f"{verdict:8} {m.name} ({took:.1f} s)", flush=True)
        if verdict != "killed":
            failed.append(m.name)
    for name, _, _, _, why in EQUIVALENT:
        if not argv or name in argv:
            print(f"{'equiv':8} {name}: {why}")
    if failed:
        print(f"not killed: {', '.join(failed)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
