"""Self-tests of the benchmark harness.

Run from the repository root (about half a minute):

    python3 perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import flowcat as fc  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402


class SmokeTest(unittest.TestCase):
    def test_first_input_of_each_workload_passes_the_gate(self):
        for name in workloads.WORKLOADS:
            for mode in ("pass", "trace"):
                with self.subTest(workload=name, mode=mode):
                    got = run.spawn(name, 0, mode, "--limit", "1")
                    self.assertEqual((got["attempted"], got["failed"]), (1, 0), got["problems"])
                    self.assertGreater(got["pass_s"], 0)


class GateTest(unittest.TestCase):
    def test_gate_trips_when_one_expected_count_is_altered(self):
        expected = workloads.load_expected()
        expected["inputs"]["deformed"]["counts"]["a"][0] += 1
        altered = run.OUT / "expected-altered.json"
        altered.parent.mkdir(parents=True, exist_ok=True)
        try:
            altered.write_text(json.dumps(expected), encoding="utf-8")
            got = run.spawn("corpus", 0, "pass", "--limit", "1", "--expected", str(altered))
        finally:
            altered.unlink()
        self.assertEqual((got["attempted"], got["failed"]), (1, 1))
        self.assertIn("per-tag counts", " ".join(got["problems"]))

    def test_gate_trips_on_a_mutant_whose_family_holds(self):
        expected = workloads.load_expected()
        gate = workloads.Gate(expected)
        (_, text), = workloads.render("mutate", 0)
        clean = fc.check_all(fc.build_tower(*fc.parse_tower_file(text)))
        self.assertTrue(gate.check_mutant("a", clean))
        self.assertEqual(gate.check_mutant("clean", clean), [])

    def test_run_refuses_a_tree_without_the_sources(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("out"))
            shutil.copy(HERE.parent / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "mutate",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class InputTest(unittest.TestCase):
    def test_same_seed_renders_byte_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(workloads.render(name, 7), workloads.render(name, 7))

    def test_seed_zero_keeps_the_generated_names(self):
        wide = [iid for iid, _, _ in workloads.systems("wide", 0)]
        self.assertEqual(wide, ["random32-1", "random32-4", "random32-8"])
        (_, fs, _), = workloads.systems("mutate", 0)
        self.assertEqual(fs, fc.deformed_sphere_system())

    def test_other_seeds_rename_points_of_isomorphic_systems(self):
        base = dict(workloads.render("corpus", 0))
        other = workloads.render("corpus", 1000)
        self.assertEqual(len(base), len(other))
        for iid, text in other:
            name = iid.split("~")[0]
            with self.subTest(input=iid):
                if name.startswith("sphere-"):
                    self.assertEqual(text, base[name])
                else:
                    self.assertEqual(iid, f"{name}~1000")
                    self.assertNotEqual(text, base[name])
                    self.assertEqual(len(text), len(base[name]))
        (iid, text), = [item for item in other if item[0].startswith("random-3~")]
        renamed = fc.check_all(fc.build_tower(*fc.parse_tower_file(text)))
        original = fc.check_all(fc.build_tower(*fc.parse_tower_file(base["random-3"])))
        self.assertEqual(renamed.to_text(), original.to_text())


if __name__ == "__main__":
    unittest.main()
