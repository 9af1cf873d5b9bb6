#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py      # from the repository root

Builds perfbench the way run.py does, then checks, on every workload with a
single pass per run:
  - two runs with the same seed print identical digests, inputs and
    simulated metrics;
  - tracing on or off does not change the digest;
  - another seed changes the inputs (the arrival trace, or the traversal
    sources of the paper workloads);
  - every metric printed is declared in BENCHMARK.json with the same unit,
    and the binary's metric tables match BENCHMARK.json exactly;
  - without the sources it measures, run.py exits non-zero and prints no
    result.
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

BUILD_DIR = os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                         or os.path.join(ROOT, ".bench_build")), "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SIM_METRICS = [m["name"] for m in BENCHMARK["end_to_end"] if m["name"].startswith("sim_")]

_binary = None
_runs = {}


def binary():
    global _binary
    if _binary is None:
        _binary = run.build(BUILD_DIR)
        if _binary is None:
            raise RuntimeError("perfbench build failed")
    return _binary


def bench(workload, seed, trace, fresh=False):
    """One single-pass run: (result JSON, digest text, inputs text). Runs are
    cached per (workload, seed, trace) unless `fresh` asks for a new one."""
    key = (workload, seed, trace)
    if fresh or key not in _runs:
        exe = binary()
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
            digest = os.path.join(tmp, "digest.txt")
            inputs = os.path.join(tmp, "inputs.txt")
            out = subprocess.run(
                [exe, "--workload", workload, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--work-dir", tmp, "--trace-out",
                 os.path.join(tmp, "trace.json"), "--digest-out", digest, "--inputs-out", inputs],
                capture_output=True, text=True, check=False, timeout=300)
            if out.returncode != 0:
                raise AssertionError(f"{workload} seed {seed} exited {out.returncode}:\n"
                                     f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if trace:
                with open(os.path.join(tmp, "trace.json"), encoding="utf-8") as f:
                    events = json.load(f)["traceEvents"]
                    if not any(e.get("ph") == "X" for e in events):
                        raise AssertionError(f"{workload}: trace has no spans")
            with open(digest, encoding="utf-8") as f, open(inputs, encoding="utf-8") as g:
                _runs[key] = (result, f.read(), g.read())
    return _runs[key]


class PerfbenchTest(unittest.TestCase):
    def test_same_seed_is_identical(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                a, digest_a, inputs_a = bench(w, 3, 0)
                b, digest_b, inputs_b = bench(w, 3, 0, fresh=True)
                self.assertTrue(digest_a)
                self.assertEqual(digest_a, digest_b)
                self.assertEqual(inputs_a, inputs_b)
                for m in SIM_METRICS:
                    self.assertEqual(a["metrics"][m], b["metrics"][m], m)
                self.assertTrue(a["correct"])
                self.assertEqual(a["failed"], 0)

    def test_tracing_does_not_change_the_digest(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                plain, digest_plain, _ = bench(w, 3, 0)
                traced, digest_traced, _ = bench(w, 3, 1)
                self.assertEqual(digest_plain, digest_traced)
                self.assertTrue(traced["correct"])

    def test_another_seed_changes_the_inputs(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, _, inputs_a = bench(w, 3, 0)
                _, _, inputs_b = bench(w, 4, 0)
                self.assertNotEqual(inputs_a, inputs_b)

    def test_printed_metrics_are_declared(self):
        declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
        for w in WORKLOADS:
            for trace, table in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w, trace=trace):
                    result, _, _ = bench(w, 3, trace)
                    names = [m["name"] for m in BENCHMARK[table]]
                    self.assertEqual(sorted(result["metrics"]), sorted(names))
                    for name, value in result["metrics"].items():
                        self.assertEqual(value["unit"], declared[name], name)
                    if trace == 0:
                        for name, value in result["metrics"].items():
                            self.assertGreater(value["value"], 0, name)

    def test_metric_tables_match_benchmark_json(self):
        out = subprocess.run([binary(), "--list-metrics"], capture_output=True, text=True,
                             check=True)
        tables = json.loads(out.stdout)
        for table in ("end_to_end", "per_layer"):
            self.assertEqual(tables[table],
                             [{"name": m["name"], "unit": m["unit"]} for m in BENCHMARK[table]])

    def test_refuses_without_sources(self):
        binary()  # creates BUILD_DIR
        with tempfile.TemporaryDirectory(dir=BUILD_DIR) as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in BENCHMARK["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, check=False, timeout=170)
            self.assertNotEqual(out.returncode, 0)
            self.assertEqual(out.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
