#!/usr/bin/env python3
"""Unit tests for perf_pairs.py (stdlib unittest, run as a ctest). Each case
builds two fake checkouts whose perfbench/run.py prints a canned JSON result
and logs its call, then drives the script through subprocess and asserts on
the exit code, the run order and the printed summary."""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "perf_pairs.py")

# The fake benchmark: prints result number k (0, 1, ...) of the checkout's
# results.json on its last line and appends "<side> <argv>" to the shared
# log next to the checkouts.
FAKE_RUN = r'''
import json, os, sys
here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(here, "results.json")) as f:
    results = json.load(f)
log = os.path.join(os.path.dirname(here), "calls.log")
k = sum(1 for line in open(log) if line.split()[0] == os.path.basename(here)) \
    if os.path.exists(log) else 0
with open(log, "a") as f:
    f.write(os.path.basename(here) + " " + " ".join(sys.argv[1:]) + "\n")
print("warm-up chatter")
print(json.dumps(results[k % len(results)]))
'''

BENCH = {"end_to_end": [
    {"name": "host_samples_per_s", "better": "higher"},
    {"name": "setup_s", "better": "lower"},
    {"name": "modeled_mcycles_per_sample", "better": "lower"}]}


def result(sps, setup=1.0, modeled=0.5, correct=True, failed=0):
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {
                "host_samples_per_s": {"value": sps, "unit": "1/s"},
                "setup_s": {"value": setup, "unit": "s"},
                "modeled_mcycles_per_sample": {"value": modeled,
                                               "unit": "Mcycles"},
                "paper_util_error": {"value": 0.25, "unit": "ratio"}}}


class PerfPairs(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = self.tmp.name

    def tearDown(self):
        self.tmp.cleanup()

    def checkout(self, name, results):
        d = os.path.join(self.root, name)
        os.makedirs(os.path.join(d, "perfbench"))
        with open(os.path.join(d, "perfbench", "run.py"), "w") as f:
            f.write(FAKE_RUN)
        with open(os.path.join(d, "results.json"), "w") as f:
            json.dump(results, f)
        with open(os.path.join(d, "BENCHMARK.json"), "w") as f:
            json.dump(BENCH, f)
        return d

    def run_pairs(self, parent, change, pairs=4):
        p = self.checkout("parent", parent)
        c = self.checkout("change", change)
        done = subprocess.run(
            [sys.executable, SCRIPT, "--parent", p, "--change", c,
             "--workload", "tower8-hybrid", "--seed", "2",
             "--pairs", str(pairs), "--seconds", "0.5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        return done.returncode, done.stdout

    def calls(self):
        with open(os.path.join(self.root, "calls.log")) as f:
            return [line.split() for line in f]

    def test_alternates_order_and_counts_wins(self):
        code, out = self.run_pairs(
            [result(100), result(110), result(90), result(105)],
            [result(120, setup=0.5), result(100, setup=0.5),
             result(130, setup=0.5), result(125, setup=0.5)])
        self.assertEqual(code, 0, out)
        order = [c[0] for c in self.calls()]
        self.assertEqual(order, ["parent", "change", "change", "parent",
                                 "parent", "change", "change", "parent"])
        # The benchmark's own arguments are passed through.
        self.assertEqual(self.calls()[0][1:],
                         ["--workload", "tower8-hybrid", "--seed", "2",
                          "--seconds", "0.5", "--trace", "0"])
        rows = {line.split()[0]: line.split() for line in out.splitlines()
                if line.strip()}
        # Pair 1 (110 -> 100) is the only loss.
        self.assertEqual(rows["host_samples_per_s"][-1], "3/4")
        self.assertEqual(rows["setup_s"][-1], "4/4")
        # Medians and quartiles per side: 90/100/105/110 and
        # 100/120/125/130.
        self.assertEqual(rows["host_samples_per_s"][1], "97.5/102.5/106.25")
        self.assertEqual(rows["host_samples_per_s"][2], "115/122.5/126.25")

    def test_modeled_mismatch_fails(self):
        code, out = self.run_pairs([result(100)],
                                   [result(120, modeled=0.51)])
        self.assertEqual(code, 1, out)
        self.assertIn("FAIL: modeled_mcycles_per_sample", out)

    def test_incorrect_run_fails(self):
        code, out = self.run_pairs([result(100)],
                                   [result(120), result(120, correct=False)])
        self.assertEqual(code, 1, out)
        self.assertIn("correct=False", out)

    def test_failed_operations_fail(self):
        code, out = self.run_pairs([result(100, failed=1)], [result(120)])
        self.assertEqual(code, 1, out)
        self.assertIn("failed=1", out)

    def test_missing_result_is_unusable(self):
        p = self.checkout("parent", [result(100)])
        c = os.path.join(self.root, "empty")
        os.makedirs(c)
        done = subprocess.run(
            [sys.executable, SCRIPT, "--parent", p, "--change", c,
             "--workload", "tower8-hybrid", "--pairs", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(done.returncode, 2, done.stdout + done.stderr)


if __name__ == "__main__":
    unittest.main()
