"""Self-test of the benchmark, at a tiny size of every workload.

    python3 perfbench/selftest.py

It checks that every metric is emitted with a unit and a valid name, that the
traced run's layers account for the untraced time, that a corrupted get
sequence is caught by the correctness gates, and that the benchmark refuses
to run without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
import unittest

import run  # puts the program's sources on sys.path
import workloads
from ledgerlab import histories, sim

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = 0.3

REPORTED = {
    "campaign": {"seed_samples"},
    "check-large": {"run_s", "check_s", "artifact_bytes"},
    "read-repair": {"run_s", "appends_per_s", "artifact_bytes"},
}
COMMON = {"setup_s", "seeds_per_s", "seed_p50_ms", "seed_p99_ms", "peak_rss_mb",
          "ops_attempted", "ops_failed_frac"}


def corrupt_one_get(history: list) -> list:
    """A copy of ``history`` whose first non-empty get result lost its first id."""
    copy = list(history)
    for i, e in enumerate(copy):
        if e.ev == histories.RESPONSE and e.kind == histories.GET and e.seq:
            copy[i] = dataclasses.replace(e, seq=e.seq[1:])
            return copy
    raise AssertionError("history has no non-empty get")


class Emitted(unittest.TestCase):
    def check(self, workload: str, trace: bool) -> dict:
        result, report = run.measure(workload, 5, SECONDS, trace, workloads.TINY)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        declared = BENCHMARK["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"], m["name"])
        for name, (value, unit) in report.items():
            self.assertRegex(name, NAME)
            self.assertTrue(unit, name)
            self.assertIsInstance(value, (int, float), name)
        self.assertEqual(report["ops_failed_frac"][0], 0)
        if not trace:
            self.assertLessEqual(COMMON | REPORTED[workload], set(report))
            for name, value in result["metrics"].items():
                self.assertGreater(value["value"], 0, name)
        return report

    def test_campaign(self):
        self.check("campaign", False)

    def test_check_large(self):
        self.check("check-large", False)

    def test_read_repair(self):
        self.check("read-repair", False)

    def test_traced_layers_add_up(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload):
                report = self.check(workload, True)
                # The layers' self times cover the traced time but for the
                # harness glue and the counting, so they add up to the
                # untraced time within the tracing overhead.
                self.assertGreater(report["trace.layer_share"][0], 0.9)
                self.assertLess(report["trace.layer_share"][0], 1)


class Gates(unittest.TestCase):
    def test_corrupted_get_fails_check_large(self):
        wl = workloads.CheckLarge(5, workloads.TINY, run.OUT / "selftest")
        wl.setup(wl.scenario_dicts())
        tally = run.Tally(wl)
        tally.gate(wl.unit(0)[2])
        self.assertEqual(tally.failed, 0)
        artifact = sim.load_artifact(wl.dir)
        bad = dataclasses.replace(artifact, history=corrupt_one_get(artifact.history))
        tally.gate(wl.judge(bad))
        self.assertGreater(tally.failed / tally.attempted, 0)

    def test_corrupted_get_fails_read_repair(self):
        wl = workloads.ReadRepair(5, workloads.TINY, run.OUT / "selftest")
        wl.setup(wl.scenario_dicts())
        tally = run.Tally(wl)
        history, *rest = wl.unit(0)[2]
        tally.gate((history, *rest))
        self.assertEqual(tally.failed, 0)
        tally.gate((corrupt_one_get(history), *rest))
        self.assertGreater(tally.failed / tally.attempted, 0)


class Refuses(unittest.TestCase):
    def test_without_program_sources(self):
        bare = run.OUT / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in BENCHMARK["paths"]:
            shutil.copytree(run.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, *BENCHMARK["command"][1:], "--workload",
                               "campaign", "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")
        shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
