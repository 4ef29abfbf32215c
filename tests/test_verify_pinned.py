"""Pinned `verify all` output: exit code and sha256 of stdout and stderr
for seeds 1 and 2.

`verify all` runs the farkas, cone, covering and aggregation suites, so
it reaches the double description, the LPs and the covering scan on
seeded random inputs; its report prints every check count, so any change
in what a suite decides shows here.  Regenerate the digests with

    PYTHONPATH=src python tests/test_verify_pinned.py

only when an output change is intended.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from closurelab.cli import main

DIGESTS = Path(__file__).resolve().parent / "data" / "verify_all_digests.json"
SEEDS = (1, 2)


def _observe(seed: int) -> list:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["verify", "all", "--seed", str(seed)])
    return [code,
            hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(),
            hashlib.sha256(stderr.getvalue().encode("utf-8")).hexdigest()]


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_all_matches_pinned_digest(seed):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _observe(seed) == expected[str(seed)]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps({str(s): _observe(s) for s in SEEDS}, indent=1) + "\n",
                       encoding="utf-8")
    sys.exit(0)
