"""Command-line front end.

Commands: hull (minimal points and integer-hull facets of a covering
instance), closure (sampled aggregation closure with per-facet
classification), cone (rays / pointed / closure / theorem1 / fii), and
verify (the seeded invariant suites).  Output is canonical and
byte-stable for fixed inputs, flags, and seed; the structured format is
a single JSON document with sorted keys.  Reports carry no timings or
work counters, so identical runs stay byte-identical.

Exit codes: 0 ok, 2 usage, parse or file I/O failure, 3 closure not
stabilized, 4 hypothesis violation (non-pointed, non-full-dimensional,
empty closure, invalid inequality), 5 internal invariant failure.  A
library failure takes its code from its error type's ``exit_code``.

``main`` parses argv once: the command name picks its own parser, which
reads the rest (see ``parse_argv``).  Only a command line that this does
not fully consume, an unknown command or none, goes through the
top-level parser, so argparse writes every usage and help message.
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
from .covering import minimal_integer_points
from .errors import ClosureLabError, ParseError
from . import __version__, linalg
from .io import KINDS, is_ascii_int, parse_instance
from .polyhedron import format_ge, format_le, parse_inequality
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NOT_STABILIZED = 3
EXIT_INTERNAL = 5

CONE_SUBCOMMANDS = ("rays", "pointed", "closure", "theorem1", "fii")


class _Doc:
    """Accumulates one report as both text lines and a JSON object; a bool
    field is written true/false in the text unless ``text`` is given."""

    def __init__(self, command: str, seed: int):
        self.lines = [f"command: {command}", f"version: {__version__}", f"seed: {seed}"]
        self.data = {"command": command, "version": __version__, "seed": seed}

    def field(self, key: str, value, text=None):
        if text is None:
            text = str(value).lower() if isinstance(value, bool) else value
        self.lines.append(f"{key}: {text}")
        self.data[key.replace("-", "_")] = value

    def block(self, key: str, entries: list[str]):
        self.lines.append(f"{key}: {len(entries)}")
        self.lines.extend(f"  {e}" for e in entries)
        self.data[key.replace("-", "_")] = entries

    def render(self, fmt: str) -> str:
        if fmt == "structured":
            return json.dumps(self.data, sort_keys=True) + "\n"
        return "\n".join(self.lines) + "\n"


def _load(path: str, expected_kind: str):
    """The instance at path, of the type ``KINDS[expected_kind]``; a file
    of the other kind is a ParseError naming it.  A UTF-8 byte-order mark
    is skipped.  The bytes are decoded whole, with no newline translation:
    ``parse_instance`` splits lines at CR, LF and CRLF alike."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ParseError(f"cannot read {path}: not UTF-8 text")
    inst = parse_instance(text)
    if not isinstance(inst, KINDS[expected_kind]):
        got = next(name for name, cls in KINDS.items() if isinstance(inst, cls))
        raise ParseError(f"expected a {expected_kind} instance, got {got!r}")
    return inst


def cmd_hull(args) -> tuple[str, int]:
    q = _load(args.instance, "covering")
    minimal = minimal_integer_points(q)
    hull = minimal.hull()
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
    q = _load(args.instance, "covering")
    _note(args, f"closure: {q.m} rows, k={args.k}, density={args.density}")
    ca = closure_approx(q, args.k, args.density)
    _note(args, f"closure: {len(ca.hulls)} of {len(ca.samples)} sample hulls built, "
                f"stabilized={ca.stabilized}")
    cuts = classify_cuts(ca)
    doc = _Doc("closure", args.seed)
    doc.field("n", q.n)
    doc.field("m", q.m)
    doc.field("k", args.k)
    doc.field("density", args.density)
    doc.field("samples", len(ca.samples))
    doc.field("stabilized", ca.stabilized)
    entries = []
    for cut in cuts:
        label = cut.label if cut.sample is None else f"{cut.label} {cut.sample.describe()}"
        entries.append(f"{format_ge(cut.inequality)} | {label}")
    doc.block("facets", entries)
    doc.block("samples-used", [s.describe() for s in ca.samples])
    return doc.render(args.format), EXIT_OK if ca.stabilized else EXIT_NOT_STABILIZED


def cmd_cone(args) -> tuple[str, int]:
    cone: GeneratedCone = _load(args.instance, "cone")
    sub = args.subcommand
    doc = _Doc(f"cone {sub}", args.seed)
    doc.field("n", cone.n)
    code = EXIT_OK
    if sub == "rays":
        rays = extreme_rays(cone)  # NotPointedError -> exit 4 with witness
        doc.block("rays", [linalg.format_vector(r) for r in rays])
    elif sub == "pointed":
        pt = is_pointed(cone)
        doc.field("pointed", pt.pointed)
        if pt.pointed:
            doc.field("support", linalg.format_vector(pt.support))
        else:
            doc.field("line", linalg.format_vector(pt.line_witness))
    elif sub == "closure":
        closure = closure_of(cone)
        doc.field("unit-last-added", not cone.has_unit_last)
        doc.field("empty", closure.is_empty)
        doc.block("inequalities", [format_le(q) for q in closure.inequalities])
    elif sub == "theorem1":
        rep = check_theorem1(cone)
        doc.field("result", "PASS" if rep.passed else "FAIL")
        doc.field("pointed", rep.pointed)
        doc.block("extreme-rays", [linalg.format_vector(r) for r in rep.extreme_rows])
        # each extreme ray is a generator row, so this holds when pointed
        doc.field("rays-are-generators", rep.pointed)
        doc.field("rebuilt-closure-equal", rep.passed)
        doc.field("unit-last-added", not cone.has_unit_last)
        if rep.detail:
            doc.field("detail", rep.detail)
        code = EXIT_OK if rep.passed else EXIT_INTERNAL
    else:
        if args.inequality is None:
            raise ParseError("fii needs an inequality argument, e.g. \"x1 + x2 <= 2\"")
        target = parse_inequality(args.inequality, cone.n)
        rep = fii_check(cone, target)
        doc.field("inequality", args.inequality.strip())
        doc.field("result", "FII" if rep.is_fii else
                  f"NOT FII (multipliers: {linalg.format_vector(rep.multipliers)})")
    return doc.render(args.format), code


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


def _int_arg(text: str) -> int:
    """argparse type for integer flags: ASCII digits only, as in instance
    files, and no more of them than int() reads."""
    if is_ascii_int(text):
        try:
            return int(text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="closurelab",
        description="Exact cutting-plane closures, covering integer hulls, "
                    "and aggregation cuts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_int_arg, default=0,
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
    p.add_argument("--k", type=_int_arg, default=1, help="rows per aggregation (default 1)")
    p.add_argument("--density", type=_int_arg, default=4,
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


@lru_cache(maxsize=1)
def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """Each command's own parser, by name: the subparsers' choices."""
    return next(a.choices for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """The namespace ``build_parser().parse_args(argv)`` gives, parsed once.

    The top-level parser only hands everything after the command name to
    that command's parser, so argv[1:] goes to it directly.  When there is
    no command, the command is unknown, or arguments are left over, the
    whole argv goes through ``build_parser().parse_args``, so every usage,
    help and "unrecognized arguments" message comes from argparse itself.
    A command parser's own error or help exits from inside it either way."""
    sub = _command_parsers().get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None), print its
    report and return the exit code; argv is read by ``parse_argv``."""
    args = parse_argv(sys.argv[1:] if argv is None else list(argv))
    if args.command == "closure" and (args.k < 1 or args.density < 1):
        build_parser().error("--k and --density must be at least 1")
    if args.command == "cone" and args.subcommand != "fii" and args.inequality is not None:
        build_parser().error(f"cone {args.subcommand} takes no inequality; only fii does")
    try:
        text, code = args.run(args)
    except ClosureLabError as exc:
        print(f"{exc.prefix}: {exc}", file=sys.stderr)
        for label, attr in (("violating point", "witness"), ("line witness", "line_witness")):
            point = getattr(exc, attr, None)
            if point is not None:
                print(f"{label}: {linalg.format_vector(point)}", file=sys.stderr)
        return exc.exit_code

    sys.stdout.write(text)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
