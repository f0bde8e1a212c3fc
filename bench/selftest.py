"""The benchmark's own tests, at tiny sizes.

    python3 bench/selftest.py

Kept out of the repository's pytest suite on purpose: they start benchmark
runs in child processes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import workloads  # noqa: E402


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


class MetricsPrintedWithUnits(unittest.TestCase):
    def test_every_metric_has_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    proc = bench_run("--workload", workload, "--seed", "3", "--seconds", "1",
                                     "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], lines[-2])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float))
                        self.assertTrue(any(line.startswith(name + " ") and line.endswith(" " + m["unit"])
                                            for line in lines), name)
                    report = json.loads(lines[-2])["report"]
                    for field in ("nproc", "cpu_model", "python", "git_commit", "seed"):
                        self.assertIn(field, report["meta"])


class CorruptedDigest(unittest.TestCase):
    def test_counted_as_failure(self):
        workload, seed = "word-queries", 5
        ops = workloads.build(workload, seed, "tiny")
        runner = harness.Runner(harness.load_cli(), ops, None)
        harness.passes_loop(runner, 1)
        digests = [harness.stdout_digest(runner.first_stdout[i]) for i in range(len(ops))]
        result = harness.run_workload(workload, seed, 0.2, False, "tiny", digests, "checked")
        self.assertEqual(result["failed"], 0)
        digests[2] = "0" * len(digests[2]) if digests[2] != "0" * len(digests[2]) else "1" * len(digests[2])
        result = harness.run_workload(workload, seed, 0.2, False, "tiny", digests, "checked")
        passes = result["report"]["passes"]
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], passes)
        self.assertEqual(result["attempted"], passes * len(ops))
        self.assertIn("digest", result["report"]["failures"][0]["reason"])


class SeedChangesInputsOnly(unittest.TestCase):
    def test_same_mix_different_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = workloads.build(workload, 1), workloads.build(workload, 2)
                self.assertNotEqual([op.argv for op in a], [op.argv for op in b])
                for key in (lambda op: op.kind, lambda op: op.tier, lambda op: (op.kind, op.reach)):
                    self.assertEqual(Counter(map(key, a)), Counter(map(key, b)))
                self.assertEqual(harness.mix_report(a), harness.mix_report(b))

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            self.assertEqual(workloads.build(workload, 7), workloads.build(workload, 7))

    def test_default_seed_digests_match_inputs(self):
        for seed in harness.DEFAULT_SEEDS:
            for workload in workloads.WORKLOADS:
                ops = workloads.build(workload, seed)
                _, status = harness.recorded_digests(workload, seed, ops, "full")
                self.assertEqual(status, "checked", (workload, seed))


class WithoutSources(unittest.TestCase):
    def test_fails_without_printing_a_result(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench_run("--workload", "ace-profile", "--seed", "0", "--seconds", "1",
                             "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
