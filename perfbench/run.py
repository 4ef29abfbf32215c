"""closurelab benchmark: seeded batches of `closurelab` CLI jobs.

    python3 perfbench/run.py --workload closure|hull|cone --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.

--trace 0 runs the workload's jobs in one fresh worker process for at
least S seconds and at least 100 jobs (or until the pool runs out),
checks every job's exit code and stdout digest against the stored
reference, and reports the end-to-end metrics.  Job and set-up times are
scaled to a reference machine speed measured by the probes in
calibrate.py; the unscaled values are printed and kept in unscaled.json.

--trace 1 runs a fixed block of the seed's first jobs three times, each
in a fresh worker process: untraced, with the span tracer installed, and
untraced again.  It reports the per-layer metrics of the traced pass and
the tracing overhead (traced wall / mean untraced wall - 1).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_PROBE_MS, probe
from workloads import MIN_JOBS, WORKLOADS, job_order, load_reference, reference_path, write_jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
# Every worker must end within this many seconds of the start of the run,
# so that the run itself ends within the 180 s a run may take.
RUN_DEADLINE_S = 170


def pinned_env() -> dict[str, str]:
    """The caller's environment without any PYTHON* or CLOSURELAB_* setting
    (CLOSURELAB_THREADS included), with a fixed hash seed and ./src as the
    only extra import path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "CLOSURELAB_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(jobs: list[dict], run_dir: Path, name: str, seconds: float,
               min_jobs: int, trace: bool = False, deadline: float | None = None) -> dict:
    """Run ``jobs`` in a fresh worker process with the pinned environment;
    ``deadline`` is a time.monotonic() value the worker must end by."""
    jobs_file = run_dir / f"{name}-jobs.json"
    out_file = run_dir / f"{name}-result.json"
    jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
    cmd = [sys.executable, "-s", str(HERE / "worker.py"), "--jobs", str(jobs_file),
           "--out", str(out_file), "--seconds", repr(seconds), "--min-jobs", str(min_jobs),
           "--src", str(SRC)]
    if trace:
        cmd += ["--trace", str(run_dir / f"{name}-spans.tsv.gz")]
    timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, env=pinned_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    sys.stderr.write(proc.stdout + proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {name} exited with {proc.returncode}")
    return json.loads(out_file.read_text(encoding="utf-8"))


def scaled(ms: float, probe_ms: float) -> float:
    """A wall time as it would read on a host where the probe takes
    REFERENCE_PROBE_MS (see calibrate.py)."""
    return ms * REFERENCE_PROBE_MS / probe_ms


def measure_setup() -> tuple[float, float]:
    """Median over fresh interpreters that import closurelab, after one
    unmeasured start that leaves the bytecode cache warm: the wall time in
    seconds, unscaled and scaled by the probes taken before and after each
    start.  This process and the interpreters it starts share one CPU, so
    the probes see the CPU the interpreter ran on."""
    cmd = [sys.executable, "-s", "-c", "import closurelab"]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        raw, norm = [], []
        before = probe()
        for i in range(SETUP_REPEATS + 1):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=pinned_env(), cwd=ROOT, check=True, timeout=60)
            wall = time.perf_counter() - t0
            after = probe()
            if i:
                raw.append(wall)
                norm.append(scaled(wall, (before + after) / 2))
            before = after
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(raw), statistics.median(norm)


def check(records: list[dict], jobs: list[dict], reference: dict) -> list[str]:
    """One message per failed job.  A job passes only when the reference
    holds its instance, it exited 0 or 3 as the reference says, and its
    stdout digest equals the reference digest."""
    by_id = {j["id"]: j for j in jobs}
    failures = []
    for r in records:
        ref = reference.get(r["id"])
        if ref is None or ref["instance_sha256"] != by_id[r["id"]]["instance_sha256"]:
            failures.append(f"{r['id']}: no reference for this instance")
        elif r["exit"] not in (0, 3) or r["exit"] != ref["exit"]:
            failures.append(f"{r['id']}: exit {r['exit']}, reference {ref['exit']}: {r['error']}")
        elif r["stdout_sha256"] != ref["stdout_sha256"]:
            failures.append(f"{r['id']}: stdout differs from the reference")
    return failures


def reported(kind: str, values: dict[str, float]) -> dict:
    """The metrics BENCHMARK.json lists under ``kind``, in its order and
    with its units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(seed: int, seconds: float, workload, run_dir: Path,
               deadline: float) -> tuple[dict, int, list[str]]:
    raw_setup, setup = measure_setup()
    jobs = write_jobs(workload, job_order(workload, seed), run_dir / "instances")
    res = run_worker(jobs, run_dir, "run", seconds, MIN_JOBS, deadline=deadline)
    records = res["records"]
    failures = check(records, jobs, load_reference(workload))
    attempted = len(records)
    ok = attempted - len(failures)
    raw_ms = [r["ms"] for r in records]
    times = [scaled(r["ms"], r["probe_ms"]) for r in records]
    metrics = {
        "jobs_per_s": ok / (sum(times) / 1000.0),
        "job_p50_ms": percentile(times, 0.5),
        "job_p90_ms": percentile(times, 0.9),
        "job_ok_ratio": ok / attempted,
        "setup_s": setup,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    unscaled = {
        "jobs_per_s": ok / (sum(raw_ms) / 1000.0),
        "job_p50_ms": percentile(raw_ms, 0.5),
        "job_p90_ms": percentile(raw_ms, 0.9),
        "setup_s": raw_setup,
        "probe_ms": statistics.median(r["probe_ms"] for r in records),
    }
    print(f"jobs: {attempted} attempted, {len(failures)} failed "
          f"(job_fail_ratio {len(failures) / attempted:.4f} of {attempted}); "
          f"wall {res['wall_s']:.3f} s; percentiles over {attempted} jobs")
    print("unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    (run_dir / "unscaled.json").write_text(json.dumps(unscaled), encoding="utf-8")
    return reported("end_to_end", metrics), attempted, failures


def traced(seed: int, workload, run_dir: Path, deadline: float) -> tuple[dict, int, list[str]]:
    jobs = write_jobs(workload, job_order(workload, seed)[:workload.trace_jobs],
                      run_dir / "instances")
    n = len(jobs)
    # Untraced passes before and after the traced one, so a machine that
    # drifts slower or faster during the run biases the overhead less.
    before = run_worker(jobs, run_dir, "untraced-1", 0.0, n, deadline=deadline)
    res = run_worker(jobs, run_dir, "traced", 0.0, n, trace=True, deadline=deadline)
    after = run_worker(jobs, run_dir, "untraced-2", 0.0, n, deadline=deadline)
    reference = load_reference(workload)
    failures = [f for r in (before, res, after) for f in check(r["records"], jobs, reference)]
    if res["missing"]:
        print(f"trace: functions not found, reported as 0: {', '.join(res['missing'])}")
    untraced_wall = (before["jobs_s"] + after["jobs_s"]) / 2
    values = dict(res["layer_metrics"])
    values["trace.jobs"] = n
    values["trace.traced_wall_s"] = res["jobs_s"]
    values["trace.untraced_wall_s"] = untraced_wall

    def scaled_sum(r):
        return sum(scaled(x["ms"], x["probe_ms"]) for x in r["records"])

    values["trace.overhead_ratio"] = (
        2 * scaled_sum(res) / (scaled_sum(before) + scaled_sum(after)) - 1.0)
    print(f"trace: {n} jobs, traced {res['jobs_s']:.3f} s, untraced {before['jobs_s']:.3f} s "
          f"and {after['jobs_s']:.3f} s, overhead {values['trace.overhead_ratio']:+.3f}")
    return reported("per_layer", values), 3 * n, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    workload = WORKLOADS[args.workload]
    if not (SRC / "closurelab" / "cli.py").is_file():
        print(f"perfbench: no closurelab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if not reference_path(workload).is_file():
        print(f"perfbench: missing reference {reference_path(workload)}", file=sys.stderr)
        return 2

    run_dir = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "PYTHONHASHSEED": pinned_env()["PYTHONHASHSEED"],
        "CLOSURELAB_THREADS": "unset",
    }
    (run_dir / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print("run: " + " ".join(f"{k}={v}" for k, v in record.items()))

    if args.trace:
        metrics, attempted, failures = traced(args.seed, workload, run_dir, deadline)
    else:
        metrics, attempted, failures = end_to_end(args.seed, args.seconds, workload, run_dir,
                                                  deadline)
    for message in failures[:20]:
        print(f"FAILED {message}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
