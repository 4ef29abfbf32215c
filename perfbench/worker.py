"""Runs one job list through ``closurelab.cli.main`` in this process, in
list order, one job at a time (a closed loop with one client).

Usage (started by run.py with a pinned environment):

    python3 worker.py --jobs JOBS.json --out RESULT.json --seconds S
                      --min-jobs N --src SRC [--trace SPANS.tsv.gz]

Jobs start while fewer than N have run or fewer than S seconds have
passed, and stop when the list ends.  Each job's stdout is captured and
reduced to its sha256; the caller checks it against the reference.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from calibrate import probe


def run_jobs(main, jobs: list[dict], seconds: float, min_jobs: int,
             tracer=None) -> tuple[list[dict], float]:
    """Run jobs through ``main(argv)``; return one record per job and the
    wall time from the start of the loop to the last job's end.  A
    machine-speed probe runs before the first job and after every job;
    each record keeps the mean of the two probes around its job."""
    records = []
    real_out, real_err = sys.stdout, sys.stderr
    start = time.perf_counter()
    end = start
    probe_before = probe()
    for i, job in enumerate(jobs):
        if i >= min_jobs and end - start >= seconds:
            break
        if tracer is not None:
            tracer.job = i
        out, err = io.StringIO(), io.StringIO()
        sys.stdout, sys.stderr = out, err
        error = None
        t0 = time.perf_counter()
        try:
            code = main(job["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a raised job is a failed job, not a failed run
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            end = time.perf_counter()
            sys.stdout, sys.stderr = real_out, real_err
        probe_after = probe()
        records.append({
            "id": job["id"],
            "exit": code,
            "stdout_sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(),
            "ms": 1000.0 * (end - t0),
            "probe_ms": (probe_before + probe_after) / 2,
            "error": error or err.getvalue()[-500:],
        })
        probe_before = probe_after
    return records, end - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-jobs", type=int, required=True)
    parser.add_argument("--src", required=True, help="the checkout's src directory")
    parser.add_argument("--trace", help="trace the run and write spans to this file")
    args = parser.parse_args(argv)

    import closurelab
    from closurelab import cli

    src = Path(args.src).resolve()
    if src not in Path(closurelab.__file__).resolve().parents:
        print(f"worker: closurelab imported from {closurelab.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    with open(args.jobs, encoding="utf-8") as fh:
        jobs = json.load(fh)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    # Look main up through the module so the traced wrapper is the one called.
    records, wall = run_jobs(lambda a: cli.main(a), jobs, args.seconds, args.min_jobs, tracer)
    jobs_s = sum(r["ms"] for r in records) / 1000.0
    result = {
        "records": records,
        "wall_s": wall,
        "jobs_s": jobs_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import layer_metrics
        result["layer_metrics"] = layer_metrics(tracer, jobs_s)
        result["missing"] = tracer.missing
        tracer.write_spans(Path(args.trace))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
