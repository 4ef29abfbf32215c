"""Workload definitions: instance generators, instance pools and the
seeded job order.

Every workload draws its jobs from a fixed pool of generated instances.
Instance ``i`` of stratum ``s`` is produced by ``random.Random("<workload>:
<s>:<i>")``, so the pool never depends on the library under test and the
stored reference (expected exit code and stdout digest per instance)
covers every job any seed can produce.  The run seed only fixes which
pool instances are taken and in what order.

Jobs follow a fixed per-workload stratum pattern, so every run has the
same mix of job kinds however many jobs it completes; within a stratum
the seed picks a permutation of that stratum's instances.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# p90 needs at least ten jobs beyond it.
MIN_JOBS = 100


def _covering(rng: random.Random, n: int, m: int, lo: int, hi: int,
              dlo: int, dhi: int) -> str:
    """A covering instance {x >= 0 : Mx >= d} with entries in [lo, hi] and
    demands in [dlo, dhi]; every row and every column has a positive
    entry, so the instance is valid and no variable is idle."""
    while True:
        rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
        if any(not any(r) for r in rows):
            continue
        if any(not any(r[j] for r in rows) for j in range(n)):
            continue
        d = [rng.randint(dlo, dhi) for _ in range(m)]
        lines = ["kind: covering", f"n: {n}", f"m: {m}"]
        lines += ["M: " + " ".join(map(str, r)) for r in rows]
        lines.append("d: " + " ".join(map(str, d)))
        return "\n".join(lines) + "\n"


def _pointed_cone(rng: random.Random, n: int) -> str:
    """Generators (a, b) of half-spaces a.x <= b that all hold strictly at
    the origin (b >= 1).  The vector (0, ..., 0, 1) then strictly supports
    every generator, so the cone is pointed, and the closure contains a
    ball around the origin, so it is full-dimensional: theorem1 passes.
    The generator count runs from 4 to 8, skewed toward 4 (about half the
    cones have 4, one in twenty has 7 or 8): each extra generator adds LPs
    and LP rows, and a job with 8 costs about five times one with 4."""
    count = 4 + min(rng.randint(0, 4) for _ in range(3))
    gens: set[tuple[int, ...]] = set()
    while len(gens) < count:
        a = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(a):
            gens.add(a + (rng.randint(1, 3),))
    lines = ["kind: cone", f"n: {n}"]
    lines += ["G: " + " ".join(map(str, g)) for g in sorted(gens)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Stratum:
    """One kind of job: how to generate its instance and the CLI command
    that runs on it (``{path}`` stands for the instance file)."""

    make: Callable[[random.Random], str]
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: dict[str, Stratum]
    pattern: tuple[str, ...]
    rounds: int       # pool size = rounds * len(pattern)
    trace_jobs: int   # fixed job count of a traced run, so counts repeat

    def pool_size(self, stratum: str) -> int:
        return self.rounds * self.pattern.count(stratum)


def _closure_instance(rng: random.Random) -> str:
    return _covering(rng, 2, 2, 0, 4, 1, 6)


def _closure(k: int, density: int) -> Stratum:
    return Stratum(_closure_instance,
                   ("closure", "{path}", "--k", str(k), "--density", str(density)))


WORKLOADS = {
    w.name: w for w in (
        # Sampled aggregation closures: LP-heavy redundancy removal, pooled
        # _intersect passes and repeated density-D hulls inside the 2D pass.
        # D=8 is left out: single jobs take 20-40 s.
        Workload(
            name="closure",
            strata={"k1d2": _closure(1, 2), "k2d2": _closure(2, 2), "k1d4": _closure(1, 4)},
            pattern=("k1d2", "k2d2", "k1d2", "k1d4", "k1d2", "k2d2"),
            rounds=18,
            trace_jobs=36),
        # Integer hulls: box enumeration and double description dominate;
        # every instance is distinct.
        Workload(
            name="hull",
            strata={
                "n2": Stratum(lambda rng: _covering(rng, 2, 2, 1, 9, 60, 200), ("hull", "{path}")),
                "n3": Stratum(lambda rng: _covering(rng, 3, 2, 1, 9, 8, 16), ("hull", "{path}")),
            },
            pattern=("n2", "n3"),
            rounds=54,
            trace_jobs=40),
        # Theorem-1 checks: many small LPs, no DD, no box scan.
        Workload(
            name="cone",
            strata={
                "q4": Stratum(lambda rng: _pointed_cone(rng, 3), ("cone", "{path}", "theorem1")),
                "q5": Stratum(lambda rng: _pointed_cone(rng, 4), ("cone", "{path}", "theorem1")),
            },
            pattern=("q4", "q5"),
            rounds=52,
            trace_jobs=30),
    )
}


def instance_text(workload: Workload, stratum: str, index: int) -> str:
    rng = random.Random(f"{workload.name}:{stratum}:{index}")
    return workload.strata[stratum].make(rng)


def job_order(workload: Workload, seed: int) -> list[tuple[str, int]]:
    """The whole pool as (stratum, index) pairs in the seed's order: the
    stratum pattern repeated, each stratum's instances in a seeded
    permutation."""
    rng = random.Random(f"order:{workload.name}:{seed}")
    perms = {}
    for s in workload.strata:
        perm = list(range(workload.pool_size(s)))
        rng.shuffle(perm)
        perms[s] = iter(perm)
    return [(s, next(perms[s])) for _ in range(workload.rounds) for s in workload.pattern]


def write_jobs(workload: Workload, order: list[tuple[str, int]], directory: Path) -> list[dict]:
    """Write the instance files for ``order`` into ``directory`` and return
    the job list: id, argv and the instance digest."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for stratum, index in order:
        text = instance_text(workload, stratum, index)
        path = directory / f"{workload.name}-{stratum}-{index}.txt"
        path.write_text(text, encoding="utf-8")
        argv = [str(path) if a == "{path}" else a for a in workload.strata[stratum].argv]
        jobs.append({
            "id": f"{stratum}:{index}",
            "argv": argv,
            "instance_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        })
    return jobs


def reference_path(workload: Workload) -> Path:
    return REFERENCE_DIR / f"{workload.name}.json"


def load_reference(workload: Workload) -> dict:
    with open(reference_path(workload), encoding="utf-8") as fh:
        return json.load(fh)["jobs"]
