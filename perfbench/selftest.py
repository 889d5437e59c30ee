"""The benchmark's own tests: every workload at its smallest size.

    python3 perfbench/selftest.py

Checks, for each workload, that an untraced and a traced run pass their
output checks and emit every metric ``BENCHMARK.json`` names, with its unit;
that I-V tables are built on ``sweep-pv-cold`` and never on
``sweep-cp-long``; that two traced runs with one seed report identical work
counters; and that the benchmark refuses to run without the program's
sources.  Takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest

from common import BENCH_DIR, ROOT
from run import WORK_COUNTERS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int, seed: int = 3, cwd=ROOT) -> tuple[int, dict, str]:
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, result, proc.stdout + proc.stderr


class WorkloadTests(unittest.TestCase):
    traced: dict = {}

    def assert_emits(self, result: dict, section: str, output: str) -> None:
        self.assertTrue(result.get("correct"), output)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        for metric in SPEC[section]:
            self.assertIn(metric["name"], metrics)
            self.assertEqual(metrics[metric["name"]]["unit"], metric["unit"])
            self.assertIsInstance(metrics[metric["name"]]["value"], float)
        self.assertEqual(len(metrics), len(SPEC[section]))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, output = bench(workload, trace=0)
                self.assertEqual(code, 0, output)
                self.assert_emits(result, "end_to_end", output)
                for metric in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][metric["name"]]["value"], 0.0)

    def test_traced_counters_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = []
                for _ in range(2):
                    code, result, output = bench(workload, trace=1)
                    self.assertEqual(code, 0, output)
                    self.assert_emits(result, "per_layer", output)
                    runs.append(result["metrics"])
                for name in WORK_COUNTERS:
                    self.assertEqual(runs[0][name]["value"], runs[1][name]["value"], name)
                tables = runs[0]["supplies.tables_built"]["value"]
                if workload == "sweep-pv-cold":
                    self.assertGreater(tables, 0)
                if workload == "sweep-cp-long":
                    self.assertEqual(tables, 0)

    def test_refuses_without_sources(self):
        bare = ROOT / ".perfbench_work" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            code, result, _ = bench(WORKLOADS[0], trace=0, cwd=bare)
            self.assertNotEqual(code, 0)
            self.assertEqual(result, {})
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
