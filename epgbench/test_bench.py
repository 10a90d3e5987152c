"""Tests of the benchmark itself.

    python3 -m unittest discover -s epgbench -p 'test_*.py'

The last two tests build the driver (into .bench_build/) on first use.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
import benchstats  # noqa: E402
import run  # noqa: E402


class Percentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_samples_beyond(self):
        with self.assertRaises(benchstats.RefusedPercentile):
            benchstats.percentile(list(range(99)), 0.90)
        with self.assertRaises(benchstats.RefusedPercentile):
            benchstats.percentile(list(range(19)), 0.50)
        with self.assertRaises(benchstats.RefusedPercentile):
            benchstats.percentile([], 0.50)

    def test_accepts_exactly_ten_samples_beyond(self):
        self.assertEqual(benchstats.percentile(list(range(1, 101)), 0.90), 90)
        self.assertEqual(benchstats.percentile(list(range(1, 21)), 0.50), 10)

    def test_ignores_sample_order(self):
        values = [float((i * 37) % 101) for i in range(101)]
        self.assertEqual(benchstats.percentile(values, 0.50),
                         benchstats.percentile(sorted(values), 0.50))

    def test_median(self):
        self.assertEqual(benchstats.median([3, 1, 2]), 2)
        self.assertEqual(benchstats.median([4, 1, 2, 3]), 2.5)


class MetricNames(unittest.TestCase):
    def test_grammar(self):
        for ok in ("setup_s", "systems.GAP.build_s", "serve.run.GAP.BFS_ms",
                   "a-b", "9lives", "x" * 64):
            self.assertEqual(benchstats.check_name(ok), ok)
        for bad in ("", "_x", ".x", "-x", "a b", "a/b", "a:b", "x" * 65,
                    "café", None):
            with self.assertRaises(ValueError, msg=repr(bad)):
                benchstats.check_name(bad)

    def test_every_metric_is_named_by_the_grammar_once(self):
        names = run.END_TO_END + run.PER_LAYER
        for name in names:
            benchstats.check_name(name)
        self.assertEqual(len(names), len(set(names)))

    def test_benchmark_json_matches_the_command(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))
        for m in bench["end_to_end"] + bench["per_layer"]:
            self.assertEqual(m["unit"], benchstats.unit_of(m["name"]))


class FailRatio(unittest.TestCase):
    def test_counting(self):
        self.assertEqual(benchstats.fail_ratio(300, 0), 0.0)
        self.assertEqual(benchstats.fail_ratio(300, 3), 0.01)
        with self.assertRaises(ValueError):
            benchstats.fail_ratio(0, 0)
        with self.assertRaises(ValueError):
            benchstats.fail_ratio(3, 4)

    def serve_once(self, inject):
        run.build()
        os.makedirs(run.OUT_DIR, exist_ok=True)
        work = tempfile.mkdtemp(dir=run.OUT_DIR)
        try:
            return run.call_driver(run.driver_args(
                "serve-s14", seed=7, reps=1, work_dir=work,
                inject_bad_request=inject))
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_injected_bad_request_is_counted(self):
        clean = self.serve_once(inject=False)
        self.assertEqual(clean["failed"], 0, clean["failures"])
        bad = self.serve_once(inject=True)
        self.assertEqual(bad["attempted"], clean["attempted"] + 1)
        self.assertEqual(bad["failed"], 1, bad["failures"])
        self.assertIn("bad-request", bad["failures"][0])
        self.assertAlmostEqual(
            benchstats.fail_ratio(bad["attempted"], bad["failed"]),
            1 / bad["attempted"])


class WithoutProgram(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        os.makedirs(run.OUT_DIR, exist_ok=True)
        bare = tempfile.mkdtemp(dir=run.OUT_DIR)
        try:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(run.HERE, os.path.join(bare, "epgbench"))
            proc = subprocess.run(
                [sys.executable, "epgbench/run.py", "--workload", "bfs-s16",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
