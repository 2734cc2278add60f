#!/usr/bin/env python3
"""Reduced-size smoke test of the AMR benchmark.

Runs `perfbench/run.py --workload all --small` (every workload, untraced
and traced) and checks that the last stdout line is JSON, that every metric
named in BENCHMARK.json is printed for every workload with its unit, and
that no correctness check failed. Run from the repository root:

    python3 perfbench/tests/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class SmokeTest(unittest.TestCase):
    def test_all_workloads(self) -> None:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all", "--seed", "7",
             "--seconds", "1", "--small"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        expected = {f"{w['name']}/{m['name']}": m["unit"]
                    for w in SPEC["workloads"]
                    for m in SPEC["end_to_end"] + SPEC["per_layer"]}
        self.assertEqual(set(metrics), set(expected))
        for name, unit in expected.items():
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertIsInstance(metrics[name]["value"], (int, float), name)
        for w in SPEC["workloads"]:
            self.assertEqual(metrics[f"{w['name']}/check_pass_ratio"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
