"""Tests of the benchmark itself: python3 perfbench/selftest.py

Smoke mode (one item per workload) must print every metric that
BENCHMARK.json names, with its unit; two traced runs of the same seed
must agree on every count; the benchmark must refuse to run without the
package source. Takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_KINDS = (".count", ".calls", ".cells", ".max")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.spec = json.load(fh)

    def test_spec_matches_the_runner(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, run.PER_LAYER)

    def test_smoke_prints_every_metric_with_its_unit(self):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in self.spec[kind]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    result = result_of(bench(
                        "--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--smoke",
                    ))
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, expected)

    def test_traced_counts_repeat_across_runs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (
                    result_of(bench(
                        "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1",
                    ))["metrics"]
                    for _ in range(2)
                )
                counts = [name for name in first if name.endswith(COUNT_KINDS)]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(first[name], second[name], name)

    def test_refuses_to_run_without_the_package(self):
        out = os.path.join(HERE, "out")
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "sweep", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)

    def test_workload_items_are_distinct_and_seeded(self):
        for workload in workloads.WORKLOADS:
            items = workloads.items(workload, 0)
            self.assertEqual(len({item.key for item in items}), len(items))
            self.assertEqual(items, workloads.items(workload, 0))
        self.assertNotEqual(workloads.items("sweep", 0), workloads.items("sweep", 1))
        self.assertEqual(workloads.items("enum", 0), workloads.items("enum", 1))
        ids = {item.id for item in workloads.items("sweep", 0)}
        self.assertLessEqual(set(workloads.KNOWN_FAILURES), ids)


if __name__ == "__main__":
    unittest.main()
