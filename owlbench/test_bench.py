#!/usr/bin/env python3
"""Tests of the OWL benchmark itself.

Run from the root of a checkout (takes about four minutes on 4 cores,
most of it the first build and the short runs):

  python3 owlbench/test_bench.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args):
    p = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                       text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    return p.returncode, lines, p.stderr


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


class BenchmarkTest(unittest.TestCase):
    def test_short_mode_runs_every_workload_once(self):
        code, lines, err = run("--short")
        self.assertEqual(code, 0, err[-2000:])
        results = [json.loads(line) for line in lines]
        self.assertEqual([r["workload"] for r in results],
                         [w["name"] for w in SPEC["workloads"]])
        for r in results:
            self.assertTrue(r["correct"], r["errors"])
            self.assertGreater(r["attempted"], 0)
            self.assertEqual(r["failed"], 0)
            self.assertEqual(set(r["metrics"]), set(units("end_to_end")))

    def check_metrics(self, trace, kind):
        code, lines, err = run("--workload", "mono-dagger", "--seed", "3",
                               "--seconds", "1", "--trace", str(trace),
                               "--min-passes", "1")
        self.assertEqual(code, 0, err[-2000:])
        meta = json.loads(lines[-2])["meta"]
        for key in ("nproc", "compiler", "build_type", "owl_obs_enabled",
                    "commit", "source_sha256", "seed", "workload"):
            self.assertIn(key, meta)
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, units(kind))
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
            # No metric may read 0: the serve probe must produce cache
            # hits, warm-session misses and cold misses alike.
            self.assertGreater(m["value"], 0, name)

    def test_every_end_to_end_metric_printed_with_unit(self):
        self.check_metrics(0, "end_to_end")

    def test_every_per_layer_metric_printed_with_unit(self):
        self.check_metrics(1, "per_layer")

    def test_corrupted_reference_digest_fails_the_run(self):
        ref = json.loads((HERE / "reference.json").read_text())
        instrs = ref["sets"]["monolithic"]["alu-machine"]
        first = next(iter(instrs))
        instrs[first] = "0" * 16
        tmp = ROOT / ".bench_build" / "owlbench-test"
        tmp.mkdir(parents=True, exist_ok=True)
        bad = tmp / "corrupted_reference.json"
        bad.write_text(json.dumps(ref))
        code, lines, _ = run("--workload", "mono-dagger", "--seed", "1",
                             "--seconds", "1", "--min-passes", "1",
                             "--reference", str(bad))
        self.assertEqual(code, 1)
        report = json.loads(lines[-2])
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(report["rows"]["fail_ratio"]["value"], 0)
        self.assertTrue(any(first in e for e in report["errors"]))

    def test_refuses_without_sources(self):
        # A directory holding only the benchmark: no result, nonzero.
        import shutil
        import tempfile
        (ROOT / ".bench_build").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as d:
            shutil.copy(ROOT / "BENCHMARK.json", d)
            shutil.copytree(HERE, Path(d) / "owlbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run(
                [sys.executable, "owlbench/run.py", "--workload",
                 "pi-flagship", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=d, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
