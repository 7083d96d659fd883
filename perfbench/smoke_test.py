#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload named in BENCHMARK.json at a tiny scale, untraced and
traced, and checks the result line: every metric BENCHMARK.json names is
present with its unit, no operation failed, and the traced run reports
failed_ratio 0. It builds through run.py, so the first run compiles.
"""

import json
import pathlib
import subprocess
import sys
import unittest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--scale", "0.05"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" %
                             (done.returncode, done.stderr[-2000:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, result, names):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in names})
        for m in names:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_every_workload(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                self.check(run(w["name"], 0), SPEC["end_to_end"])
            with self.subTest(workload=w["name"], trace=1):
                result = run(w["name"], 1)
                self.check(result, SPEC["per_layer"])
                self.assertEqual(
                    result["metrics"]["failed_ratio"]["value"], 0)


if __name__ == "__main__":
    unittest.main()
