#!/usr/bin/env python3
"""The benchmark's own tests, at toy size (a few seconds each).

    python3 perfbench/test_run.py

Run from the root of a source checkout.  Every workload must complete and
print every metric BENCHMARK.json names, with its unit; a corrupted
expected answer must make the run fail; and outside a source tree the
benchmark must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace=0, *extra, runner=RUN):
    proc = subprocess.run(
        runner + ["--workload", workload, "--seed", "7", "--seconds", "1",
                  "--trace", str(trace), "--toy", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


class Benchmark(unittest.TestCase):
    def assert_metrics(self, result, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        for name, v in result["metrics"].items():
            self.assertIsInstance(v["value"], (int, float), name)
            self.assertTrue(math.isfinite(v["value"]), name)

    def test_workloads_match_spec(self):
        sys.path.insert(0, BENCH_DIR)
        sys.dont_write_bytecode = True
        import run as bench
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(bench.WORKLOADS))

    def test_every_workload_completes(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = run(w["name"])
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertEqual((result["correct"], result["failed"]), (True, 0))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_run_prints_every_layer(self):
        proc, result = run("cli_case_1e6", 1)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assert_metrics(result, SPEC["per_layer"])

    def test_corrupted_expected_answer_fails(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, result = run(w["name"], 0, "--corrupt-expected")
                self.assertNotEqual(proc.returncode, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
        proc, result = run("cli_case_1e6", 1, "--corrupt-expected")
        self.assertNotEqual(proc.returncode, 0)
        self.assertGreater(result["failed"], 0)

    def test_fails_without_source_tree(self):
        bare = os.path.join(ROOT, ".bench_run", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for p in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                            ignore=shutil.ignore_patterns("__pycache__"))
        try:
            proc, result = run("cli_case_1e6", runner=[sys.executable, os.path.join(bare, "perfbench", "run.py")])
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
