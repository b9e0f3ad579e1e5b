#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The AUC and smoke tests build the system and the harness into
.bench_build (the first build takes a few minutes).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(10, 0, -1)]
        self.assertEqual(benchlib.nearest_rank(values, 50), 5.0)
        self.assertEqual(benchlib.nearest_rank(values, 90), 9.0)
        self.assertEqual(benchlib.nearest_rank(values, 100), 10.0)
        self.assertEqual(benchlib.nearest_rank(values, 1), 1.0)
        self.assertEqual(benchlib.nearest_rank([7.0], 90), 7.0)
        with self.assertRaises(ValueError):
            benchlib.nearest_rank([], 50)

    def test_ten_samples_beyond_p90_needs_100(self):
        self.assertEqual(benchlib.samples_beyond(100, 90), 10)
        self.assertEqual(benchlib.samples_beyond(99, 90), 9)
        self.assertEqual(benchlib.samples_beyond(121, 90), 12)
        self.assertEqual(benchlib.samples_beyond(10, 50), 5)
        self.assertEqual(benchlib.samples_beyond(1, 90), 0)


def span(i, name, start, end, parent):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span(0, "root", 0.0, 10.0, -1),
                 span(1, "a", 1.0, 4.0, 0),
                 span(2, "a.child", 2.0, 3.0, 1),
                 span(3, "b", 5.0, 9.0, 0)]
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(selfs[1], 2.0)
        self.assertAlmostEqual(selfs[2], 1.0)
        self.assertAlmostEqual(selfs[3], 4.0)
        self.assertAlmostEqual(sum(selfs.values()), 10.0)

    def test_overlapping_and_overhanging_children(self):
        spans = [span(0, "root", 0.0, 10.0, -1),
                 span(1, "x", 1.0, 5.0, 0),
                 span(2, "x", 3.0, 7.0, 0),    # overlaps the first child
                 span(3, "y", 9.0, 12.0, 0)]   # runs past its parent
        selfs = benchlib.self_times(spans)
        self.assertAlmostEqual(selfs[0], 10.0 - 6.0 - 1.0)
        by_name = benchlib.self_time_by_name(spans)
        self.assertAlmostEqual(by_name["x"], 8.0)

    def test_layer_accounting(self):
        report = {"spans": [span(0, "detect", 0.0, 10.0, -1),
                            span(1, "logs.read", 0.0, 2.0, 0),
                            span(2, "core.train", 3.0, 8.0, 0),
                            span(3, "emit", 8.0, 9.0, 0)]}
        layers, outside = benchlib.layer_accounting(report)
        self.assertAlmostEqual(layers["logs"], 2.0)
        self.assertAlmostEqual(layers["core"], 5.0)
        self.assertAlmostEqual(layers["features"], 0.0)
        self.assertAlmostEqual(outside, 3.0)


def harness():
    """Builds the harness (once per checkout) and returns its path."""
    import run  # noqa: E402
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return os.path.join(ROOT, run.build()["harness"])
    finally:
        os.chdir(cwd)


class AucTest(unittest.TestCase):
    LIST = ("\n=== Dept-A (4 users) ===\n"
            "  1. EVE0001    priority 1\n"
            "  2. BOB0002    priority 2\n"
            "  3. CAT0003    priority 3\n"
            "  4. DAN0004    priority 4\n"
            "\n=== Dept-B (3 users) ===\n"
            "  1. FOX0005    priority 1\n"
            "  2. GUS0006    priority 1\n"
            "  3. HAL0007    priority 3\n"
            "\n=== Dept-C (2 users) ===\n"
            "  1. IDA0008    priority 1\n"
            "  2. JON0009    priority 2\n")

    def auc(self, list_text, insiders):
        with tempfile.TemporaryDirectory() as tmp:
            list_path = os.path.join(tmp, "list.out")
            truth_path = os.path.join(tmp, "truth.csv")
            with open(list_path, "w") as fh:
                fh.write(list_text)
            with open(truth_path, "w") as fh:
                fh.write("user,anomaly_start,anomaly_end\n")
                for user in insiders:
                    fh.write(f"{user},2010-02-01,2010-02-05\n")
            proc = subprocess.run([harness(), "auc", f"--list={list_path}",
                                   f"--truth={truth_path}"],
                                  stdout=subprocess.PIPE, check=True)
        return {d["name"]: d for d in json.loads(proc.stdout)["departments"]}

    def test_auc_from_printed_ranking(self):
        depts = self.auc(self.LIST, ["EVE0001", "CAT0003", "GUS0006"])
        self.assertEqual(depts["Dept-A"]["users"], 4)
        self.assertEqual(depts["Dept-A"]["positives"], 2)
        # Ranks 1 and 3 of 4: the insiders outrank 3 of 4 pairs.
        self.assertAlmostEqual(depts["Dept-A"]["auc"], 0.75)
        # A tie is broken pessimistically: the other user goes first.
        self.assertAlmostEqual(depts["Dept-B"]["auc"], 0.5)
        self.assertEqual(depts["Dept-C"]["positives"], 0)

    def test_alerts_ranking_feeds_the_same_auc(self):
        alerts = [{"user": "B", "peak_score": 2.0},
                  {"user": "C", "peak_score": 5.0},
                  {"user": "B", "peak_score": 9.0}]
        roster = [("A", "D1"), ("B", "D1"), ("C", "D1"), ("D", "D1")]
        text = benchlib.alerts_as_list(alerts, roster)
        self.assertIn("  1. B          priority 1", text)
        self.assertIn("  2. C          priority 2", text)
        self.assertIn("  4. D          priority 3", text)
        self.assertAlmostEqual(self.auc(text, ["C"])["D1"]["auc"], 2.0 / 3.0)


class SmokeTest(unittest.TestCase):
    """Every workload at the tiny size, untraced and traced."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        self.assertEqual(proc.returncode, 0, proc.stderr.decode()[-3000:])
        return json.loads(proc.stdout.decode().splitlines()[-1])

    def test_all_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for w in spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    result = self.run_bench(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in spec[key]})
                    if trace == 0:
                        for m in spec[key]:
                            self.assertGreater(
                                result["metrics"][m["name"]]["value"], 0)


if __name__ == "__main__":
    unittest.main()
