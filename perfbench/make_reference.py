"""Regenerate the stored reference of one or more workloads.

    python3 perfbench/make_reference.py [closure] [hull] [cone]

Runs every pool instance once through the CLI of the checkout's ./src
and writes perfbench/reference/<workload>.json: per instance its sha256,
the exit code and the sha256 of stdout.  CLI output is meant to stay
byte-identical, so regenerate only when a change of output is intended,
and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import WORK, run_worker
from workloads import WORKLOADS, reference_path, write_jobs


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        order = [(s, i) for s in workload.strata for i in range(workload.pool_size(s))]
        run_dir = WORK / f"reference-{name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        jobs = write_jobs(workload, order, run_dir / "instances")
        res = run_worker(jobs, run_dir, "reference", 0.0, len(jobs))
        entries = {}
        for job, rec in zip(jobs, res["records"]):
            if rec["exit"] not in (0, 3):
                print(f"{name} {job['id']}: exit {rec['exit']}: {rec['error']}", file=sys.stderr)
                return 1
            entries[job["id"]] = {
                "instance_sha256": job["instance_sha256"],
                "exit": rec["exit"],
                "stdout_sha256": rec["stdout_sha256"],
            }
        reference_path(workload).parent.mkdir(exist_ok=True)
        with open(reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "jobs": entries}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        exits = sorted({e["exit"] for e in entries.values()})
        print(f"{name}: {len(entries)} instances, exits {exits}, {res['wall_s']:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
