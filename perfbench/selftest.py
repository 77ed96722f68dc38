"""Self-test of the benchmark: smoke runs of every workload, plus unit checks.

    python3 perfbench/selftest.py

Each workload runs at a tiny size (``--smoke``) with tracing off and on, and
the test checks that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted.  Takes well under a minute.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

RUN = os.path.join(HERE, "run.py")
RECORD_FIELDS = {"commit", "nproc", "python", "seed", "workload", "loadavg_1m_start",
                 "loadavg_1m_end", "samples"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=175)


class SmokeTest(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        for workload in workloads.WORKLOADS:
            for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", trace, "--smoke")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    *_, record_line, result_line = proc.stdout.splitlines()
                    result = json.loads(result_line)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    want = {m["name"]: m["unit"] for m in spec[group]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertTrue(math.isfinite(metric["value"]), name)
                    record = json.loads(record_line)["run_record"]
                    self.assertLessEqual(RECORD_FIELDS, set(record))
                    self.assertEqual(record["seed"], 3)

    def test_fails_outside_a_source_checkout(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare_", dir=os.path.join(ROOT, ".perfbench_work"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "paper_tables", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=175)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class UnitTest(unittest.TestCase):
    def test_schema_validator(self):
        with open(os.path.join(ROOT, "golden", "schema_v1.json"), encoding="utf-8") as fh:
            schema = json.load(fh)
        doc = {"schema_version": 1, "command": "roots", "type": "A1", "count": 1,
               "roots": [{"coords": [1], "height": 1, "length": "long"}]}
        self.assertEqual(checks.schema_errors(doc, schema), [])
        for bad in ({**doc, "extra": 1}, {**doc, "count": 0}, {**doc, "schema_version": True},
                    {**doc, "roots": [{"coords": [1], "height": 1, "length": "mid"}]}):
            self.assertNotEqual(checks.schema_errors(bad, schema), [], bad)
        with self.assertRaises(ValueError):
            checks.schema_errors(1, {"maximum": 3})

    def test_generators_stay_inside_the_recorded_domain(self):
        census = {" ".join(a) for a in workloads.census_domain()}
        with open(os.path.join(HERE, "reference", "classical_census.json"), encoding="utf-8") as fh:
            self.assertEqual(set(json.load(fh)), census)
        with open(os.path.join(HERE, "reference", "chevalley_forms.json"), encoding="utf-8") as fh:
            forms = set(json.load(fh))
        for seed in range(5):
            for smoke in (False, True):
                inputs = workloads.classical_census_inputs(seed, smoke)
                self.assertEqual(inputs, workloads.classical_census_inputs(seed, smoke))
                self.assertLessEqual({" ".join(a) for a in inputs["queries"]}, census)
                for name, T in workloads.chevalley_forms_inputs(seed, smoke)["forms"]:
                    self.assertIn(f"form {name} {','.join(map(str, T))}", forms)
        self.assertGreaterEqual(len(workloads.classical_census_inputs(0, False)["queries"]), 100)

    def test_self_time_excludes_children(self):
        spans = [("cli.main", 0.0, 10.0, -1, 0, 0), ("reps.rho", 1.0, 4.0, 0, 0, 0),
                 ("reps.rho", 2.0, 3.0, 1, 0, 0), ("rootdata.RootSystem.__init__", 5.0, 6.0, 0, 0, 7)]
        m = tracing.layer_metrics(spans, 0)
        self.assertEqual(m["cli.self_s"], 6.0)
        self.assertEqual(m["reps.self_s"], 3.0)
        self.assertEqual(m["rootdata.build_s"], 1.0)
        self.assertEqual(m["rootdata.us_per_positive_root"], 1e6 / 7)
        self.assertEqual(tracing.missing_coverage("chevalley_forms", spans),
                         list(tracing.COVERAGE["chevalley_forms"][1:]))

    def test_tally_sums_calls_into_one_span(self):
        tracer = tracing.Tracer()
        add = tracer.tally("chevalley.jacobi_residual", lambda a, b: a + b)
        self.assertEqual([add(1, 2) for _ in range(3)], [3, 3, 3])
        (span,) = tracer.finish()
        self.assertEqual(span[0], "chevalley.jacobi_residual")
        self.assertEqual(span[3:], (-1, -1, 3))
        self.assertEqual(tracing.layer_metrics([span], 0)["chevalley.jacobi_triples"], 3)


if __name__ == "__main__":
    unittest.main()
