"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Shows that the output check catches a
corrupted reference, that two traced runs of one seed give identical
counts, and that self times are derived from child coverage.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import span_stats  # noqa: E402
from workloads import WORKLOADS, job_order, load_reference, write_jobs  # noqa: E402

SELFTEST_DIR = run.WORK / "selftest"


class ReferenceCheck(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        workload = WORKLOADS["hull"]
        cls.jobs = write_jobs(workload, job_order(workload, 0)[:4], SELFTEST_DIR / "instances")
        cls.records = run.run_worker(cls.jobs, SELFTEST_DIR, "check", 0.0, 4)["records"]
        cls.reference = load_reference(workload)
        cls.target = cls.jobs[1]["id"]

    def corrupted(self, **change):
        ref = copy.deepcopy(self.reference)
        ref[self.target].update(change)
        return ref

    def assert_only_target_fails(self, failures):
        self.assertEqual(len(failures), 1, failures)
        self.assertTrue(failures[0].startswith(self.target + ":"), failures)

    def test_stored_reference_passes(self):
        self.assertEqual(run.check(self.records, self.jobs, self.reference), [])

    def test_corrupted_digest_is_caught(self):
        failures = run.check(self.records, self.jobs, self.corrupted(stdout_sha256="0" * 64))
        self.assert_only_target_fails(failures)

    def test_wrong_exit_code_is_caught(self):
        self.assert_only_target_fails(run.check(self.records, self.jobs, self.corrupted(exit=3)))

    def test_changed_instance_is_caught(self):
        failures = run.check(self.records, self.jobs, self.corrupted(instance_sha256="0" * 64))
        self.assert_only_target_fails(failures)

    def test_error_exit_fails_even_when_the_reference_agrees(self):
        records = copy.deepcopy(self.records)
        records[1]["exit"] = 5
        self.assert_only_target_fails(run.check(records, self.jobs, self.corrupted(exit=5)))


class TracedCounts(unittest.TestCase):
    def test_two_traced_runs_of_one_seed_give_identical_counts(self):
        per_layer = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        counted = [m["name"] for m in per_layer
                   if m["unit"] in ("count", "ratio") and not m["name"].startswith("trace.")]
        for name, size in (("closure", 6), ("hull", 4), ("cone", 4)):
            workload = WORKLOADS[name]
            jobs = write_jobs(workload, job_order(workload, 7)[:size], SELFTEST_DIR / "instances")
            first, second = (
                run.run_worker(jobs, SELFTEST_DIR, f"{name}-{tag}", 0.0, size, trace=True)
                for tag in ("a", "b"))
            counts = [{k: res["layer_metrics"][k] for k in counted} for res in (first, second)]
            self.assertEqual(counts[0], counts[1], name)
            self.assertEqual(counts[0]["cli.main.calls"], size)
            self.assertGreater(counts[0]["lp.solve_lp.calls"], 0)


class SelfTime(unittest.TestCase):
    def test_self_time_is_duration_minus_child_coverage(self):
        spans = [
            ["cli.main", 0.0, 10.0, -1, 0],
            ["polyhedron.remove_redundant", 1.0, 5.0, 0, 0],
            ["lp.solve_lp", 2.0, 3.0, 1, 0],
            ["lp.solve_lp", 3.5, 4.5, 1, 0],
            ["lp.solve_lp", 6.0, 9.0, 0, 0],
        ]
        st = span_stats(spans)
        self.assertEqual(st["cli.main"]["self"], 3.0)
        self.assertEqual(st["polyhedron.remove_redundant"]["self"], 2.0)
        self.assertEqual(st["lp.solve_lp"]["calls"], 3)
        self.assertEqual(st["lp.solve_lp.by_remove_redundant"]["calls"], 2)
        self.assertEqual(st["lp.solve_lp.by_main"]["incl"], 3.0)
        self.assertEqual(sum(s["self"] for k, s in st.items() if ".by_" not in k), 10.0)


if __name__ == "__main__":
    unittest.main()
