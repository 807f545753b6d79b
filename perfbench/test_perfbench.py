#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Each workload runs at its tiny tier, plain and traced: every metric that
BENCHMARK.json names must be emitted with its unit, and every correctness
check must pass. The exact-percentile helper is checked against sorted
samples by the perfbench_selftest binary.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    return out.returncode, out.stdout.strip().splitlines()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.build_dir = run.build()

    def test_exact_percentiles_match_sorted_samples(self):
        out = subprocess.run([str(self.build_dir / "perfbench_selftest")],
                             capture_output=True, text=True)
        self.assertEqual(out.returncode, 0, out.stdout)

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]),
                         sorted(run.WORKLOADS))

    def check(self, workload, trace):
        code, lines = tiny_run(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in expected})
        for m in expected:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            self.assertEqual(result["metrics"]["trace.dropped"]["value"], 0)

    def test_fleet_durable(self):
        self.check("fleet_durable", 0)
        self.check("fleet_durable", 1)

    def test_star_incremental(self):
        self.check("star_incremental", 0)
        self.check("star_incremental", 1)

    def test_serve_mixed(self):
        self.check("serve_mixed", 0)
        self.check("serve_mixed", 1)


if __name__ == "__main__":
    unittest.main()
