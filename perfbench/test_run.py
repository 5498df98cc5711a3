#!/usr/bin/env python3
"""Tests of the benchmark harness, in smoke mode (about 90 s).

Run from the root of a checkout:  python3 perfbench/test_run.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


class SmokeTest(unittest.TestCase):
    """Every workload, untraced and traced, emits every metric."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.proc = subprocess.run(
            [sys.executable, RUN, "--workload", "all", "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        cls.lines = cls.proc.stdout.rstrip("\n").split("\n")

    def test_exits_zero_with_no_failed_operation(self):
        self.assertEqual(self.proc.returncode, 0)
        summary = json.loads(self.lines[-1])
        self.assertTrue(summary["correct"])
        self.assertEqual(summary["failed"], 0)
        self.assertGreater(summary["attempted"], 0)

    def test_every_metric_is_emitted_with_its_unit(self):
        metrics = json.loads(self.lines[-1])["metrics"]
        for w in self.spec["workloads"]:
            for m in self.spec["end_to_end"] + self.spec["per_layer"]:
                key = "%s/%s" % (w["name"], m["name"])
                self.assertIn(key, metrics)
                self.assertEqual(metrics[key]["unit"], m["unit"], key)
                self.assertIsInstance(metrics[key]["value"], (int, float),
                                      key)

    def test_metrics_are_printed_by_name(self):
        text = "\n".join(self.lines[:-1])
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertIn("  %s " % m["name"], text)

    def test_end_to_end_metrics_are_never_zero(self):
        metrics = json.loads(self.lines[-1])["metrics"]
        for w in self.spec["workloads"]:
            for m in self.spec["end_to_end"]:
                key = "%s/%s" % (w["name"], m["name"])
                self.assertGreater(metrics[key]["value"], 0.0, key)

    def test_trace_files_are_trace_event_json(self):
        out = os.path.join(build_dir(), "perfbench-out")
        for w in self.spec["workloads"]:
            path = os.path.join(out, "%s-seed1.trace.json" % w["name"])
            with open(path) as f:
                trace = json.load(f)
            self.assertEqual(trace["otherData"]["workload"], w["name"])
            events = trace["traceEvents"]
            self.assertTrue(events)
            for e in events[:50]:
                self.assertEqual(e["ph"], "X")
                self.assertGreaterEqual(e["dur"], 0.0)


class TracedCountsTest(unittest.TestCase):
    """The traced run's counts do not depend on how long it ran."""

    COUNTS = ("kernels.conv.fw_macs", "kernels.conv.bw_data_macs",
              "kernels.conv.bw_weight_macs", "sparse.tap_reuse_frac",
              "sparse.csb_weight_bytes", "sparse.weight_density",
              "sparse.mac_density", "sim.cycles", "sim.stall_cycles",
              "sim.glb_conflicts", "sim.analytic_cycle_ratio",
              "arch.model_speedup", "arch.model_energy_ratio",
              "serve.checkpoint_bytes")

    def traced(self, seconds):
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "dropback_qe", "--seed",
             "2", "--seconds", seconds, "--trace", "1", "--smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300)
        self.assertEqual(proc.returncode, 0)
        return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])

    def test_counts_repeat_exactly_at_other_seconds(self):
        short, longer = self.traced("0.1"), self.traced("3")
        for name in self.COUNTS:
            self.assertEqual(short["metrics"][name]["value"],
                             longer["metrics"][name]["value"], name)


class IsolationTest(unittest.TestCase):
    """Without the repository's sources the benchmark fails cleanly."""

    def test_fails_without_sources(self):
        lone = os.path.join(build_dir(), "isolated-checkout")
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
        shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "dropback_qe", "--seed", "1", "--seconds", "1", "--trace",
             "0"], cwd=lone, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=180)
        shutil.rmtree(lone, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
