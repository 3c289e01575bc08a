"""Self-test of the benchmark on small inputs.  From the root of a checkout:

    python3 perfbench/selftest.py

It checks that every workload prints every end-to-end metric of
BENCHMARK.json with its unit, that every per-layer metric fires on the
workload that names it (so a rename that drops a span fails here), that
a corrupted artifact counts as a failed step, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
os.environ["COARSE_LAB_THREADS"] = "1"
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import SMALL, WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def prepared(name: str):
    workdir = ROOT / ".perfbench" / f"selftest-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workdir, WORKLOADS[name](workdir, 1, SMALL)


def quietly(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


class BenchmarkSelfTest(unittest.TestCase):
    def test_declared_metrics_match_the_benchmark(self):
        declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
        self.assertEqual(declared, [(m.name, m.unit, m.better) for m in spans.METRICS])
        self.assertEqual(
            [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))

    def test_every_workload_reports_every_end_to_end_metric(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workdir, steps = prepared(name)
                result = quietly(run.measure, steps, workdir, ROOT, 0.1, time.perf_counter())
                self.assertEqual(result["failed"], 0, name)
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(units, dict(run.END_TO_END))
                self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_every_per_layer_metric_fires_on_its_workload(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workdir, steps = prepared(name)
                result, fired = quietly(run.trace, steps, workdir, ROOT, 0.1, time.perf_counter(), "selftest")
                self.assertEqual(result["failed"], 0, name)
                self.assertEqual(set(result["metrics"]), {m.name for m in spans.METRICS})
                missing = [m.name for m in spans.METRICS if m.workload == name and m.name not in fired]
                self.assertEqual(missing, [])

    def test_tracing_leaves_the_program_as_it_was(self):
        import coarselab.graph_core as graph_core
        import coarselab.labelings as labelings

        before = labelings.girth
        restore = spans.install(spans.Recorder("selftest"))
        self.assertIsNot(labelings.girth, before)
        self.assertIs(labelings.girth, graph_core.girth)
        restore()
        self.assertIs(labelings.girth, before)

    def test_a_corrupted_artifact_counts_as_a_failed_step(self):
        workdir, steps = prepared("cancellation_walls")
        env = run.child_env(ROOT)
        result = run.run_processes(steps, workdir, env)
        self.assertEqual(run.check_pass(steps, result), 0)
        csv = workdir / "wallmetric.csv"
        csv.write_bytes(csv.read_bytes().rsplit(b"\n", 3)[0] + b"\n")
        self.assertEqual(run.check_pass(steps, result), 1)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            attempted, failed = run.report_failures([result])
        self.assertEqual((attempted, failed), (len(steps), 1))
        self.assertIn(f"error_rate: {1 / len(steps):.6g} fraction", out.getvalue())

    def test_refuses_to_run_without_the_sources(self):
        bare = ROOT / ".perfbench" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        argv = BENCHMARK["command"] + ["--workload", "cancellation_walls", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
