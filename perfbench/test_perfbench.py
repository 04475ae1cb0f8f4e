#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/test_perfbench.py

Builds the benchmark program through run.py and checks, with short runs:
  * metric and workload names (and units) match BENCHMARK.json;
  * modeled metrics repeat bit-exactly for one seed and change with the seed;
  * the traced run's spans reconcile with its per-sample totals;
  * every run is correct, including the hand-run svgg11-serve workload.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

MODELED = ("modeled_mcycles_per_sample", "modeled_energy_uj_per_sample",
           "modeled_dma_mb_per_sample", "modeled_fpu_util")
SERVE_EXTRA = ("latency_p50_ms.low", "latency_tail_ms.low",
               "latency_p50_ms.high", "latency_tail_ms.high")
RECONCILE_BOUND = 0.1


class PerfbenchTest(unittest.TestCase):
    results = {}

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def result(self, workload, seed, trace, seconds=1):
        key = (workload, seed, trace, seconds)
        if key not in self.results:
            out = subprocess.run(
                [self.binary, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(out.returncode, 0, out.stderr)
            res = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(sorted(res), ["attempted", "correct", "failed",
                                           "metrics"])
            self.assertTrue(res["correct"], out.stderr)
            self.assertEqual(res["failed"], 0)
            self.assertGreaterEqual(res["attempted"], 1)
            self.results[key] = res
        return self.results[key]

    def assert_metrics(self, res, table, extra=()):
        units = {m["name"]: m["unit"] for m in table}
        names = [m["name"] for m in table] + list(extra)
        self.assertEqual(list(res["metrics"]), names)
        for name, m in res["metrics"].items():
            if name in units:
                self.assertEqual(m["unit"], units[name], name)

    def test_names_match_benchmark_json(self):
        self.assertEqual(len(set(self.workloads)), len(self.workloads))
        for w in self.workloads:
            self.assertIn(w, run.WORKLOADS)
            self.assert_metrics(self.result(w, 1, 0), self.spec["end_to_end"])
            self.assert_metrics(self.result(w, 1, 1), self.spec["per_layer"])
        for m in self.spec["end_to_end"]:
            for w in self.workloads:
                self.assertNotEqual(self.result(w, 1, 0)["metrics"][
                    m["name"]]["value"], 0, (w, m["name"]))

    def test_modeled_metrics_repeat_and_follow_seed(self):
        for w in self.workloads:
            a = self.result(w, 7, 0)["metrics"]
            b = self.result(w, 7, 0, seconds=2)["metrics"]
            c = self.result(w, 8, 0)["metrics"]
            for name in MODELED:
                self.assertEqual(a[name]["value"], b[name]["value"],
                                 (w, name))
                self.assertNotEqual(a[name]["value"], c[name]["value"],
                                    (w, name))

    def test_trace_reconciles(self):
        for w in self.workloads:
            m = {k: v["value"] for k, v in self.result(w, 1, 1)["metrics"]
                 .items()}
            self.assertLess(m["bench.reconcile_error"], RECONCILE_BOUND, w)
            layers = sum(m["runtime.engine.layer_us." + k]
                         for k in ("encode", "conv", "fc"))
            phases = (m["compress.encode_us"] + m["kernels.functional_us"] +
                      m["kernels.timing_us"] + m["runtime.engine.handoff_us"])
            self.assertAlmostEqual(phases, layers, delta=1e-6 * layers)
            self.assertLess(abs(m["runtime.engine.sample_us"] - layers),
                            RECONCILE_BOUND * m["runtime.engine.sample_us"])
            self.assertGreater(m["bench.trace_overhead_ratio"], 0)

    def test_serve_runs_correct(self):
        res = self.result("svgg11-serve", 1, 0, seconds=3)
        self.assert_metrics(res, self.spec["end_to_end"], SERVE_EXTRA)


if __name__ == "__main__":
    unittest.main()
