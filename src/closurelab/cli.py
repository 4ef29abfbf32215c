"""Command-line front end.

Commands: hull (minimal points and integer-hull facets of a covering
instance), closure (sampled aggregation closure with per-facet
classification), cone (rays / pointed / closure / theorem1 / fii), and
verify (the seeded invariant suites).  Output is canonical and
byte-stable for fixed inputs, flags, and seed; the structured format is
a single JSON document with sorted keys.  Work counters stand in for
wall-clock timings so identical runs stay byte-identical.

Exit codes: 0 ok, 2 usage or parse failure, 3 closure not stabilized,
4 hypothesis violation (non-pointed, non-full-dimensional, empty
closure, invalid inequality), 5 internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .aggregation import classify_cuts, closure_approx
from .cone import (
    GeneratedCone,
    check_theorem1,
    closure_of,
    extreme_rays,
    fii_check,
    is_pointed,
)
from .covering import integer_hull, minimal_integer_points
from .errors import (
    ClosureLabError,
    ContractViolation,
    HypothesisViolation,
    InternalInvariantError,
    InvalidInequalityError,
    ParseError,
)
from . import linalg
from .io import InstanceFile, parse_instance
from .polyhedron import format_ge, format_le, parse_inequality
from .verify import SUITES, run_suite

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_STABILIZED = 3
EXIT_HYPOTHESIS = 4
EXIT_INTERNAL = 5

CONE_SUBCOMMANDS = ("rays", "pointed", "closure", "theorem1", "fii")


class _Doc:
    """Accumulates one report as both text lines and a JSON object."""

    def __init__(self, command: str, seed: int):
        self.lines = [f"command: {command}", f"version: {VERSION}", f"seed: {seed}"]
        self.data = {"command": command, "version": VERSION, "seed": seed}

    def field(self, key: str, value, text=None):
        self.lines.append(f"{key}: {value if text is None else text}")
        self.data[key.replace("-", "_")] = value

    def block(self, key: str, entries: list[str]):
        self.lines.append(f"{key}: {len(entries)}")
        self.lines.extend(f"  {e}" for e in entries)
        self.data[key.replace("-", "_")] = entries

    def render(self, fmt: str) -> str:
        if fmt == "structured":
            return json.dumps(self.data, sort_keys=True) + "\n"
        return "\n".join(self.lines) + "\n"


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _load(path: str, expected_kind: str | None = None) -> InstanceFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    inst = parse_instance(text)
    if expected_kind and inst.kind != expected_kind:
        raise ParseError(f"expected a {expected_kind} instance, got {inst.kind!r}")
    return inst


def cmd_hull(args) -> tuple[str, int]:
    inst = _load(args.instance, "covering")
    q = inst.payload
    minimal = minimal_integer_points(q)
    hull = integer_hull(q)
    doc = _Doc("hull", args.seed)
    doc.field("n", q.n)
    doc.field("m", q.m)
    doc.block("minimal-points", [linalg.format_vector(p) for p in minimal.points])
    doc.block("facets", [format_ge(f) for f in hull.inequalities])
    return doc.render(args.format), EXIT_OK


def _note(args, message: str) -> None:
    if getattr(args, "verbose", 0):
        print(message, file=sys.stderr)


def cmd_closure(args) -> tuple[str, int]:
    inst = _load(args.instance, "covering")
    q = inst.payload
    _note(args, f"closure: {q.m} rows, k={args.k}, density={args.density}")
    ca = closure_approx(q, args.k, args.density)
    _note(args, f"closure: {len(ca.hulls)} aggregated hulls intersected, "
                f"stabilized={ca.stabilized}")
    cuts = classify_cuts(ca)
    doc = _Doc("closure", args.seed)
    doc.field("n", q.n)
    doc.field("m", q.m)
    doc.field("k", args.k)
    doc.field("density", args.density)
    doc.field("samples", len(ca.hulls))
    doc.field("stabilized", ca.stabilized, text=_bool(ca.stabilized))
    entries = []
    for cut in cuts:
        label = cut.label if cut.sample is None else f"{cut.label} {cut.sample.describe()}"
        entries.append(f"{format_ge(cut.inequality)} | {label}")
    doc.block("facets", entries)
    doc.block("samples-used", [s.describe() for s in ca.samples_used])
    return doc.render(args.format), EXIT_OK if ca.stabilized else EXIT_NOT_STABILIZED


def cmd_cone(args) -> tuple[str, int]:
    inst = _load(args.instance, "cone")
    cone: GeneratedCone = inst.payload
    sub = args.subcommand
    doc = _Doc(f"cone {sub}", args.seed)
    doc.field("n", cone.n)

    if sub == "rays":
        rays = extreme_rays(cone)  # NotPointedError -> exit 4 with witness
        doc.block("rays", [linalg.format_vector(r) for r in rays.rays])
        return doc.render(args.format), EXIT_OK

    if sub == "pointed":
        pt = is_pointed(cone)
        doc.field("pointed", pt.pointed, text=_bool(pt.pointed))
        if pt.pointed:
            doc.field("support", linalg.format_vector(pt.support))
        else:
            doc.field("line", linalg.format_vector(pt.line_witness))
        return doc.render(args.format), EXIT_OK

    if sub == "closure":
        closure = closure_of(cone)
        doc.field("unit-last-added", not cone.has_unit_last,
                  text=_bool(not cone.has_unit_last))
        doc.field("empty", closure.is_empty, text=_bool(closure.is_empty))
        doc.block("inequalities", [format_le(q) for q in closure.inequalities])
        return doc.render(args.format), EXIT_OK

    if sub == "theorem1":
        rep = check_theorem1(cone)
        doc.field("result", "PASS" if rep.passed else "FAIL")
        doc.field("pointed", rep.pointed, text=_bool(rep.pointed))
        doc.block("extreme-rays", [linalg.format_vector(r) for r in rep.extreme_rays])
        doc.field("rays-are-generators", rep.rays_are_generators,
                  text=_bool(rep.rays_are_generators))
        doc.field("rebuilt-closure-equal", rep.rebuilt_equals_closure,
                  text=_bool(rep.rebuilt_equals_closure))
        doc.field("unit-last-added", rep.added_unit_last, text=_bool(rep.added_unit_last))
        if rep.detail:
            doc.field("detail", rep.detail)
        return doc.render(args.format), EXIT_OK if rep.passed else EXIT_INTERNAL

    if args.inequality is None:
        raise ParseError("fii needs an inequality argument, e.g. \"x1 + x2 <= 2\"")
    target = parse_inequality(args.inequality, cone.n)
    rep = fii_check(cone, target)
    doc.field("inequality", args.inequality.strip())
    if rep.is_fii:
        doc.field("result", "FII")
    else:
        doc.field("result",
                  f"NOT FII (multipliers: {linalg.format_vector(rep.multipliers)})")
    return doc.render(args.format), EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    reports = run_suite(args.suite, args.seed)
    doc = _Doc("verify", args.seed)
    doc.field("suite", args.suite)
    failed = False
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        doc.field(rep.name, status, text=f"{status} ({rep.checks} checks)")
        if not rep.passed:
            failed = True
            doc.block(f"{rep.name}-counterexamples", [
                line for failure in rep.failures for line in failure.splitlines()
            ])
    doc.field("result", "FAIL" if failed else "PASS")
    return doc.render(args.format), EXIT_INTERNAL if failed else EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="Exact cutting-plane closures, covering integer hulls, "
                    "and aggregation cuts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized work (echoed in output)")
        p.add_argument("--out", help="also write the report to this path")
        p.add_argument("--format", choices=("text", "structured"), default="text")
        p.add_argument("-v", "--verbose", action="count", default=0,
                       help="progress notes on stderr; stdout stays canonical")

    p = sub.add_parser("hull", help="minimal points and integer-hull facets")
    p.add_argument("instance")
    common(p)
    p.set_defaults(run=cmd_hull)

    p = sub.add_parser("closure", help="sampled aggregation closure")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=1, help="rows per aggregation (default 1)")
    p.add_argument("--density", type=int, default=4,
                   help="multiplier grid density (default 4)")
    common(p)
    p.set_defaults(run=cmd_closure)

    p = sub.add_parser("cone", help="generated-cone queries")
    p.add_argument("instance")
    p.add_argument("subcommand", choices=CONE_SUBCOMMANDS)
    p.add_argument("inequality", nargs="?", default=None,
                   help="for fii: the inequality, e.g. \"x1 + x2 <= 2\"")
    common(p)
    p.set_defaults(run=cmd_cone)

    p = sub.add_parser("verify", help="run a seeded invariant suite")
    p.add_argument("suite", choices=SUITES)
    common(p)
    p.set_defaults(run=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "closure" and (args.k < 1 or args.density < 1):
        parser.error("--k and --density must be at least 1")
    try:
        text, code = args.run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ContractViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidInequalityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.witness is not None:
            print(f"violating point: {linalg.format_vector(exc.witness)}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except HypothesisViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        witness = getattr(exc, "line_witness", None)
        if witness is not None:
            print(f"line witness: {linalg.format_vector(witness)}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ClosureLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
