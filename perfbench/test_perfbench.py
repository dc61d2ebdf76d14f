"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -v

They run every workload at its tiny size, check the printed metrics
against BENCHMARK.json, show that a wrong expected answer is counted as
a failure, and check the generated LHP(n) against the package's own
construction.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import run
import workloads
from tracing import Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def invoke(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class TinyRuns(unittest.TestCase):
    def setUp(self) -> None:
        self.work = run.ROOT / ".perfbench_work" / f"selftest-{self._testMethodName}"

    def tearDown(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def test_every_workload_passes_at_tiny_size(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                r = run.Run(name, seed=7, work=self.work / name, tiny=True)
                r.measure(0)
                self.assertGreater(r.attempted, 0)
                self.assertEqual(r.failed, 0, r.problems)

    def test_same_seed_same_inputs(self):
        a = run.Run("large_fronts", seed=3, work=self.work / "a", tiny=True)
        b = run.Run("large_fronts", seed=3, work=self.work / "b", tiny=True)
        c = run.Run("large_fronts", seed=4, work=self.work / "c", tiny=True)
        self.assertEqual(a.digest, b.digest)
        self.assertNotEqual(a.digest, c.digest)

    def test_wrong_expected_answer_is_counted(self):
        r = run.Run("fixtures_cli", seed=1, work=self.work, tiny=True)
        lens = next(op for op in r.next_round if op.klass == "tb lens.front")
        lens.check = workloads.expect(0, "tb = 0")  # the fixture's tb is -1
        r.measure(0)
        self.assertEqual(r.failed, 1)
        self.assertEqual(r.problems, ["tb lens.front: missing line 'tb = 0'"])

    def test_traced_run_wraps_and_restores_every_entry_point(self):
        r = run.Run("high_genus", seed=2, work=self.work, tiny=True)
        before = r.mods.intmat.mat_mul
        tracer = Tracer()
        r.measure(0, tracer)
        self.assertEqual(tracer.missing, [])
        self.assertIs(r.mods.intmat.mat_mul, before)
        layers = tracer.layer_metrics(1)
        self.assertGreater(layers["mcg.h1_action_calls"][0], 0)
        self.assertGreater(layers["intmat.mat_mul_s"][0], 0)

    def test_known_defect_inputs_are_probed(self):
        r = run.Run("fixtures_cli", seed=1, work=self.work, tiny=True)
        labels = [label for label, _ in workloads.known_defects(r.ctx)]
        self.assertEqual(len(labels), 5)
        self.assertLessEqual(len(r.defects_failing()), 5)


class Output(unittest.TestCase):
    def result(self, trace: int) -> tuple[dict, list[str]]:
        done = invoke("--workload", "unknot_search", "--seed", "5", "--seconds", "0",
                      "--trace", str(trace), "--tiny")
        self.assertEqual(done.returncode, 0, done.stderr)
        lines = done.stdout.splitlines()
        return json.loads(lines[-1]), lines[:-1]

    def check_metrics(self, trace: int, declared: list[dict]) -> None:
        result, human = self.result(trace)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            line = f"{m['name']} {got['value']} {m['unit']}"
            self.assertTrue(any(h == line or h.startswith(line + " (") for h in human), line)

    def test_end_to_end_metrics_match_benchmark_json(self):
        self.check_metrics(0, BENCH["end_to_end"])

    def test_per_layer_metrics_match_benchmark_json(self):
        self.check_metrics(1, BENCH["per_layer"])

    def test_fails_without_the_sources(self):
        bare = run.ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = invoke("--workload", "fixtures_cli", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


class BenchmarkJson(unittest.TestCase):
    def test_benchmark_json_shape(self):
        self.assertEqual(set(BENCH), {"command", "paths", "run_seconds", "workloads",
                                      "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(workloads.WORKLOADS))
        names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
        names += [w["name"] for w in BENCH["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for w in BENCH["workloads"]:
            self.assertTrue(NAME.fullmatch(w["name"]), w["name"])
            self.assertLessEqual(len(w["why"]), 200)
        for m in BENCH["end_to_end"] + BENCH["per_layer"]:
            self.assertTrue(NAME.fullmatch(m["name"]), m["name"])
            self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
            self.assertIn(m["better"], ("higher", "lower"))
        for m in BENCH["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in BENCH["end_to_end"]))


class Generators(unittest.TestCase):
    def test_lhp_matches_the_package_family(self):
        mods = run.fresh_import()
        for n in (2, 5, 9):
            ours = mods.front.parse_front(workloads.lhp_front(n, False, 0, 0))
            theirs = mods.kirby.linked_handle_pair(n).front
            self.assertEqual(ours.arcs, theirs.arcs)


if __name__ == "__main__":
    unittest.main()
