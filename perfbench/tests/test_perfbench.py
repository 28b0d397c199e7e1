#!/usr/bin/env python3
"""Self-tests for the host-time benchmark.

Run from the repository root (builds the benchmark first if needed):

    python3 perfbench/tests/test_perfbench.py

They check that every metric prints with its name and unit, that the exact
per-cell counts repeat identically across two runs, that the golden gate
fails when one expected value is perturbed, and that the benchmark refuses
to run without the repository sources.
"""

import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", os.path.join(BENCH_DIR, "run.py"))
run_py = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)

EXACT_COUNTS = ("cell.allocs", "cell.msgs", "cell.virt_s")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build = run_py.build_dir()
        cls.binary = run_py.build(cls.build)
        cls.scratch = tempfile.mkdtemp(prefix="selftest-", dir=cls.build)
        cls.cache = {}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def bench(self, workload, trace, seed=1, golden_dir=None, reuse=True):
        """Run the binary for a minimal loop: (result, stdout, stderr)."""
        key = (workload, trace, seed, golden_dir)
        if reuse and key in self.cache:
            return self.cache[key]
        golden = golden_dir or os.path.join(BENCH_DIR, "golden")
        done = subprocess.run(
            [self.binary, f"--workload={workload}", f"--seed={seed}",
             "--seconds=0", f"--trace={trace}", f"--golden-dir={golden}"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.cache[key] = (result, done.stdout, done.stderr)
        return self.cache[key]

    def test_every_metric_prints_with_name_and_unit(self):
        for workload in [w["name"] for w in BENCHMARK["workloads"]]:
            for trace, declared in ((0, BENCHMARK["end_to_end"]),
                                    (1, BENCHMARK["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result, stdout, _ = self.bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(sorted(metrics),
                                     sorted(m["name"] for m in declared))
                    table = stdout.splitlines()
                    for m in declared:
                        got = metrics[m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertTrue(math.isfinite(got["value"]), m["name"])
                        self.assertTrue(
                            any(line.split()[:1] == [m["name"]] and
                                line.split()[-1] == m["unit"]
                                for line in table),
                            m["name"] + " missing from the printed table")
                    self.assertTrue(any(line.split() == ["failed_frac", "0",
                                                         "fraction"]
                                        for line in table))

    def test_exact_counts_repeat_across_runs(self):
        for workload in ("jacobi_cells", "nn_lossy_strict"):
            with self.subTest(workload=workload):
                first, _, _ = self.bench(workload, 1, seed=7)
                second, _, _ = self.bench(workload, 1, seed=7, reuse=False)
                for name in EXACT_COUNTS:
                    self.assertEqual(first["metrics"][name]["value"],
                                     second["metrics"][name]["value"], name)

    def test_golden_gate_fails_on_a_perturbed_value(self):
        golden = os.path.join(self.scratch, "golden")
        shutil.copytree(os.path.join(BENCH_DIR, "golden"), golden)
        result, _, _ = self.bench("jacobi_cells", 0, golden_dir=golden)
        self.assertTrue(result["correct"])

        path = os.path.join(golden, "jacobi_cells.json")
        with open(path) as f:
            table = json.load(f)
        fields = table["cells"][0]["fields"]
        fields["messages_sent"] = str(int(fields["messages_sent"]) + 1)
        with open(path, "w") as f:
            json.dump(table, f)
        result, _, stderr = self.bench("jacobi_cells", 0, golden_dir=golden,
                                       reuse=False)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("golden mismatch: messages_sent", stderr)

    def test_refuses_to_run_without_the_sources(self):
        bare = os.path.join(self.scratch, "bare")
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, "build"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "jacobi_cells",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=170)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
