#!/usr/bin/env python3
"""Smoke tests for the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/smoke_test.py

Every workload runs at a short simulated horizon (--scale), untraced and
traced, through perfbench/run.py exactly as a benchmark run does. The
tests check that each run passes its own output checks, carries the
host fingerprint, reports every metric BENCHMARK.json names and nothing
else, and that the simulated results repeat exactly across reruns and
between traced and untraced runs. Seed 977 was never used while the workloads were tuned: it must
pass every check and report the same metric names as seed 1.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 977)
# Short horizons: a few tenths of a second of host time per rep.
SCALE = {
    "wan_mixed": "0.05",
    "wan_sharded": "0.05",
    "inference_batch": "0.1",
    "flap_recovery": "0.05",
}


def bench(workload, seed, trace, *extra):
    """Run the benchmark; return (exit code, stdout lines, last-line JSON)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--scale", SCALE.get(workload, "0.05"), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, lines, result


def simulated(lines):
    """The exact simulated results a run printed."""
    [line] = [x for x in lines if x.startswith("simulated: ")]
    return line


class Smoke(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in SPEC["workloads"]:
            for seed in SEEDS:
                for trace in (0, 1):
                    cls.runs[w["name"], seed, trace] = bench(w["name"], seed,
                                                             trace)

    def test_every_run_passes_its_checks(self):
        for key, (code, lines, result) in self.runs.items():
            with self.subTest(run=key):
                self.assertEqual(code, 0, "\n".join(lines[-20:]))
                self.assertIsNotNone(result)
                self.assertEqual(set(result), {"correct", "attempted",
                                               "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                [line] = [x for x in lines if x.startswith("fingerprint: ")]
                self.assertEqual(
                    set(json.loads(line[len("fingerprint: "):])),
                    {"cpu_model", "cpu_affinity", "hw_threads",
                     "simd_detected", "simd_active", "compiler",
                     "build_type", "cxx_flags"})

    def test_every_metric_is_reported(self):
        wanted = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
        for (workload, seed, trace), (_, _, result) in self.runs.items():
            with self.subTest(workload=workload, seed=seed, trace=trace):
                got = result["metrics"]
                self.assertEqual(set(got), {m["name"] for m in wanted[trace]})
                for m in wanted[trace]:
                    self.assertEqual(got[m["name"]]["unit"], m["unit"])
                    self.assertIsInstance(got[m["name"]]["value"],
                                          (int, float))
                if trace == 0:
                    for name, metric in got.items():
                        self.assertGreater(metric["value"], 0, name)

    def test_simulated_results_are_exact(self):
        for w in SPEC["workloads"]:
            for seed in SEEDS:
                with self.subTest(workload=w["name"], seed=seed):
                    untraced = simulated(self.runs[w["name"], seed, 0][1])
                    traced = simulated(self.runs[w["name"], seed, 1][1])
                    self.assertEqual(untraced, traced)
                    _, rerun, _ = bench(w["name"], seed, 0)
                    self.assertEqual(simulated(rerun), untraced)

    def test_seed_changes_the_inputs(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.assertNotEqual(
                    simulated(self.runs[w["name"], SEEDS[0], 0][1]),
                    simulated(self.runs[w["name"], SEEDS[1], 0][1]))

    def test_sharded_matches_one_shard(self):
        self.assertEqual(simulated(self.runs["wan_mixed", 1, 0][1]),
                         simulated(self.runs["wan_sharded", 1, 0][1]))

    def test_bad_arguments_fail_without_a_result(self):
        code, lines, result = bench("no_such_workload", 1, 0)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
