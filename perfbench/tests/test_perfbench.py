"""Self-tests of the benchmark, on minimal (smoke) inputs.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

The first test to run builds the driver under .bench_build/.
"""

import contextlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")


def load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def bench(*args):
    """Run the benchmark; returns (exit code, stdout lines, result)."""
    proc = subprocess.run([sys.executable, RUN] + list(args), cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, lines, result


def smoke(workload, trace, *extra):
    return bench("--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke", *extra)


with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


class SummarizeTest(unittest.TestCase):
    """Timings: the median and the highest percentile that has at
    least ten samples beyond it, with the sample count."""

    def setUp(self):
        self.run = load_run_module()

    def test_percentile_has_ten_samples_beyond_it(self):
        for n, want in ((5, None), (39, None), (40, 75.0), (100, 90.0),
                        (200, 95.0), (1000, 99.0), (10000, 99.9)):
            med, p, value, count = self.run.summarize(
                [float(i) for i in range(n)])
            self.assertEqual(count, n)
            self.assertEqual(p, want, n)
            self.assertEqual(med, (n - 1) / 2.0)
            if p is not None:
                beyond = sum(1 for i in range(n) if i > value)
                self.assertGreaterEqual(beyond, 10)

    def test_rejects_unknown_arguments_and_workloads(self):
        for argv in (["--workload", "nope", "--seed", "1", "--seconds",
                      "1", "--trace", "0"],
                     ["--workload", "fig8_eval", "--seed", "1",
                      "--seconds", "1", "--trace", "0", "--bogus", "1"],
                     ["--workload", "fig8_eval", "--seed", "1",
                      "--seconds", "1"]):
            with self.assertRaises(self.run.UsageError):
                self.run.parse_args(argv)
        code, lines, result = bench("--workload", "nope", "--seed", "1",
                                    "--seconds", "1", "--trace", "0")
        self.assertEqual(code, 2)
        self.assertIsNone(result)


class SmokeTest(unittest.TestCase):
    """Each workload prints every metric BENCHMARK.json names, with its
    unit, and passes its output checks."""

    def check(self, workload, trace, section):
        code, lines, result = smoke(workload, trace)
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in SPEC[section]})
        for m in SPEC[section]:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertTrue(any(
                line.split()[:2] == ["metric", m["name"]] and
                line.split()[-1] == m["unit"] for line in lines),
                "metric %s not printed with its unit" % m["name"])
        if trace == 0:
            self.assertTrue(any(line.startswith("timing run_s") and
                                "median" in line and "(n=" in line
                                for line in lines))
        return result

    def test_end_to_end_metrics(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 0, "end_to_end")
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0, m["name"])

    def test_per_layer_metrics(self):
        for workload in SPEC_WORKLOADS:
            with self.subTest(workload=workload):
                result = self.check(workload, 1, "per_layer")
                self.assertGreaterEqual(
                    result["metrics"]["bench.span_coverage_pct"]["value"],
                    95.0)
                self.assertGreater(
                    result["metrics"]["trace.events"]["value"], 0)


class DigestTest(unittest.TestCase):
    """A deliberately wrong digest counts as a failure and fails the
    command."""

    def test_wrong_digest_is_a_failure(self):
        cwd = os.getcwd()
        os.chdir(ROOT)  # run.py builds and runs under the cwd
        try:
            run = load_run_module()
        finally:
            os.chdir(cwd)
        with open(run.DIGESTS) as f:
            digests = json.load(f)
        digests["smoke"]["serve_shift"]["1"]["serve:run"]["ppw"] = \
            "0000000000000000"
        out = io.StringIO()
        sigterm = signal.getsignal(signal.SIGTERM)  # main() replaces it
        os.makedirs(run.BUILD_ROOT, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.BUILD_ROOT) as tmp:
            run.DIGESTS = os.path.join(tmp, "digests.json")
            with open(run.DIGESTS, "w") as f:
                json.dump(digests, f)
            try:
                with contextlib.redirect_stdout(out):
                    code = run.main(["--workload", "serve_shift", "--seed",
                                     "1", "--seconds", "1", "--trace", "0",
                                     "--size", "smoke"])
            finally:
                signal.signal(signal.SIGTERM, sigterm)
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(line.startswith("FAILED serve:run/ppw")
                            for line in lines))

    def test_smoke_digests_are_recorded(self):
        with open(os.path.join(ROOT, "perfbench", "digests.json")) as f:
            digests = json.load(f)
        for workload in SPEC_WORKLOADS:
            self.assertIn("1", digests["smoke"][workload])


SPEC_WORKLOADS = [w["name"] for w in SPEC["workloads"]]

if __name__ == "__main__":
    unittest.main()
