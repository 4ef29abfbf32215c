"""Pinned `cone` subcommand output: exit code and digests of stdout and
stderr for rays, pointed, closure, theorem1 and fii on the shipped cone
instances and on seeded pointed, tilted and line cones.

The benchmark pool runs only `cone theorem1` on pointed cones, so these
digests are what holds the other subcommands, and the line-cone error
paths, byte-stable.  Regenerate them with

    PYTHONPATH=src python tests/test_cone_cli_pinned.py

only when an output change is intended.
"""

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from closurelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "data" / "cone_cli_digests.json"
SEEDS = range(30)


def _cone(seed: int) -> tuple[str, list[tuple[int, ...]]]:
    """A small seeded cone: 'pointed' generators (a, b >= 1) hold strictly
    at the origin; 'tilted' ones are random vectors oriented to a random
    strict support; 'line' adds an opposite pair to a pointed family."""
    rng = random.Random(seed)
    style = ("pointed", "tilted", "line")[seed % 3]
    n = rng.choice((2, 3))
    count = rng.randint(3, 5)
    gens: set[tuple[int, ...]] = set()
    if style == "tilted":
        h = [rng.randint(-2, 2) for _ in range(n)] + [rng.randint(1, 2)]
        while len(gens) < count:
            g = tuple(rng.randint(-3, 3) for _ in range(n + 1))
            side = sum(a * b for a, b in zip(h, g))
            if side:
                gens.add(g if side > 0 else tuple(-a for a in g))
    else:
        while len(gens) < count:
            a = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(a):
                gens.add(a + (rng.randint(1, 3),))
    out = sorted(gens)
    if style == "line":
        v = tuple(rng.randint(-2, 2) for _ in range(n)) + (rng.randint(-2, 2),)
        if not any(v):
            v = (1,) + (0,) * n
        out += [v, tuple(-a for a in v)]
    return style, out


def _cone_file(gens) -> str:
    lines = ["kind: cone", f"n: {len(gens[0]) - 1}"]
    lines += ["G: " + " ".join(map(str, g)) for g in gens]
    return "\n".join(lines) + "\n"


def _inequality(normal, rhs) -> str:
    """CLI grammar for normal.x <= rhs, e.g. '- 2 x1 + 1 x3 <= 4'."""
    terms = [f"{'-' if c < 0 else '+'} {abs(c)} x{j}"
             for j, c in enumerate(normal, start=1) if c]
    return " ".join(terms).removeprefix("+ ") + f" <= {rhs}"


def _generators(text: str) -> list[tuple[int, ...]]:
    return [tuple(int(t) for t in line[2:].split())
            for line in text.splitlines() if line.startswith("G:")]


def _cases(workdir: Path):
    """(case id, argv) pairs in a fixed order."""
    files = {p.stem: p.read_text(encoding="utf-8")
             for p in sorted((ROOT / "instances").glob("*_cone.txt"))}
    for seed in SEEDS:
        style, gens = _cone(seed)
        files[f"seed{seed:02d}-{style}"] = _cone_file(gens)
    for name, text in files.items():
        path = workdir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        for sub in ("rays", "pointed", "closure", "theorem1"):
            yield f"{name}/{sub}", ["cone", str(path), sub]
        a, b = next((g[:-1], g[-1]) for g in _generators(text) if any(g[:-1]))
        yield f"{name}/fii-valid", ["cone", str(path), "fii", _inequality(a, b)]
        yield (f"{name}/fii-invalid",
               ["cone", str(path), "fii", _inequality([-c for c in a], -b - 1)])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _observe() -> dict[str, list]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in _cases(Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            out[case] = [code, _digest(stdout.getvalue()), _digest(stderr.getvalue())]
    return out


def test_cone_subcommands_match_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    observed = _observe()
    assert list(observed) == list(expected)
    changed = [case for case in expected if observed[case] != expected[case]]
    assert changed == []
    # the pinned cases reach every exit the cone command has
    assert {code for code, _, _ in expected.values()} >= {0, 4}


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(_observe(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
