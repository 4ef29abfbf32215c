"""Pinned `hull` and `closure` output: exit code and digests of stdout and
stderr, in text and structured format, on the shipped instances, the
3x3 instance at three (k, D) settings, seeded 3-variable covering
instances and covering instances with rational entries.

The benchmark pools run only 2-variable integer closures and
2-/3-variable integer hulls, so these digests are what holds 3-variable
closures, rational data and zero rows or columns byte-stable.
Regenerate them with

    PYTHONPATH=src python tests/test_closure_cli_pinned.py

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
DIGESTS = Path(__file__).resolve().parent / "data" / "closure_cli_digests.json"
SEEDS = range(20)

# (name, rows of M, d): the 3x3 instance of the ROADMAP baseline, then
# rational entries, a zero row and a zero column
NAMED = (
    ("three-by-three", ("2 1 1", "1 2 1", "1 1 3"), "3 3 4"),
    ("rational-two-row", ("1/2 3/4", "2/3 1/3"), "5/2 7/3"),
    ("rational-demand", ("3 2", "1 4"), "7/2 9/4"),
    ("rational-zero-row", ("1/3 0 2/5", "0 0 0", "1 1/2 0"), "4/3 0 5/2"),
    ("rational-zero-column", ("0 3/2 1/4", "0 1/3 5/6"), "11/4 7/5"),
)

# (k, D) settings for closure on the named instances
CLOSURE_SETTINGS = ((1, 2), (1, 4), (2, 2))


def _covering_file(rows, demand) -> str:
    lines = ["kind: covering", f"n: {len(rows[0].split())}", f"m: {len(rows)}"]
    lines += [f"M: {row}" for row in rows]
    lines.append(f"d: {demand}")
    return "\n".join(lines) + "\n"


def _seeded(seed: int) -> str:
    """A small 3-variable covering instance with 1-3 rows, entries 0-4
    (zeros included) and demands 0-9."""
    rng = random.Random(f"closure-cli:{seed}")
    rows, demand = [], []
    for _ in range(rng.randint(1, 3)):
        row = [rng.randint(0, 4) for _ in range(3)]
        if not any(row):
            row[rng.randrange(3)] = 1
        rows.append(" ".join(map(str, row)))
        demand.append(str(rng.randint(0, 9)))
    return _covering_file(rows, " ".join(demand))


def _cases(workdir: Path):
    """(case id, argv) pairs in a fixed order."""
    runs = []
    for path in sorted((ROOT / "instances").glob("*.txt")):
        runs.append((path.stem, str(path), ("hull", "closure")))
    for name, rows, demand in NAMED:
        path = workdir / f"{name}.txt"
        path.write_text(_covering_file(rows, demand), encoding="utf-8")
        runs.append((name, str(path), ("hull",) + tuple(
            f"closure-k{k}-d{d}" for k, d in CLOSURE_SETTINGS)))
    for seed in SEEDS:
        path = workdir / f"seed{seed:02d}.txt"
        path.write_text(_seeded(seed), encoding="utf-8")
        runs.append((f"seed{seed:02d}", str(path), ("hull",)))
    for name, path, commands in runs:
        for command in commands:
            if command.startswith("closure-"):
                k, d = command.removeprefix("closure-k").split("-d")
                argv = ["closure", path, "--k", k, "--density", d]
            else:
                argv = [command, path]
            for fmt in ("text", "structured"):
                yield f"{name}/{command}/{fmt}", argv + ["--format", fmt]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _observe() -> dict[str, list]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, argv in _cases(Path(tmp)):
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = main(argv)
            # the instance path is a temporary directory; keep it out of
            # the digests
            err = stderr.getvalue().replace(tmp, "TMP")
            out[case] = [code, _digest(stdout.getvalue()), _digest(err)]
    return out


def test_hull_and_closure_match_pinned_digests():
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    observed = _observe()
    assert list(observed) == list(expected)
    changed = [case for case in expected if observed[case] != expected[case]]
    assert changed == []
    # the pinned cases reach the success, not-stabilized and usage exits
    assert {code for code, _, _ in expected.values()} >= {0, 2, 3}


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(_observe(), indent=1) + "\n", encoding="utf-8")
    sys.exit(0)
