#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

    python3 perfbench/test_perfbench.py

Builds iaa_perfbench like perfbench/run.py does, then checks that
BENCHMARK.json lists exactly the metrics iaa_perfbench reports, that seeds
are deterministic (iaa_perfbench --selftest), that a short run of each kind
prints a well-formed, correct result, and that run.py fails without a
result where the library sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def build_benchmark():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        return os.path.abspath(run.build())
    finally:
        os.chdir(cwd)


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.exe = build_benchmark()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_workload(self, workload, trace):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(out.stdout.strip().split("\n")[-1])

    def test_metrics_match_benchmark_json(self):
        listed = subprocess.run([self.exe, "--list-metrics"],
                                stdout=subprocess.PIPE, text=True,
                                check=True).stdout.split("\n")
        got = {"e2e": [], "layer": []}
        for line in filter(None, listed):
            kind, name, unit, better = line.split()
            got[kind].append({"name": name, "unit": unit, "better": better})
        e2e = [{k: m[k] for k in ("name", "unit", "better")}
               for m in self.spec["end_to_end"]]
        self.assertEqual(got["e2e"], e2e)
        self.assertEqual(got["layer"], self.spec["per_layer"])
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_seeds_are_deterministic(self):
        subprocess.run([self.exe, "--selftest", "--seed", "7"], cwd=ROOT,
                       check=True)

    def test_result_contract(self):
        for workload, trace in (("paper", 0), ("service_mix", 0),
                                ("service_mix", 1)):
            with self.subTest(workload=workload, trace=trace):
                r = self.run_workload(workload, trace)
                self.assertEqual(set(r),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                want = self.spec["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(r["metrics"]), [m["name"] for m in want])
                for m in want:
                    self.assertEqual(r["metrics"][m["name"]]["unit"], m["unit"])
                if not trace:
                    for name, v in r["metrics"].items():
                        self.assertGreater(v["value"], 0, name)

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, run.build_dir())
        os.makedirs(scratch, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=scratch) as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
