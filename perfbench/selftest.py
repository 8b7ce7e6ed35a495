"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload untraced and traced (twice, to see that every count
repeats exactly), checks that corrupted CLI outputs are rejected, that the
benchmark refuses to run without the sources, and that BENCHMARK.json lists
the metrics and workloads this harness reports.  Takes a few minutes.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import LAYER_METRICS, import_seconds  # noqa: E402
from workloads import SIZES, WORKLOADS, Invocation, check_output  # noqa: E402

SEED = 3
COUNT_UNITS = {"count", "count/trial", "count/step", "bytes"}
COUNT_RATIOS = {"falsifier.sample.starved_frac", "falsifier.ascent.improved_frac",
                "orthonormal.gram_schmidt.fail_frac"}


def _work_dir():
    return Path(tempfile.mkdtemp(prefix=".work-selftest-", dir=HERE))


class TestOutputChecks(unittest.TestCase):
    """A real tiny verify run passes the checker; each corruption fails it."""

    @classmethod
    def setUpClass(cls):
        cls.work = _work_dir()
        runner = run.Runner(cls.work, SIZES["tiny"])
        cls.inv = Invocation(("verify", "--ineq", "schwarz,moore-1.9", "--samples", "7", "--seed", "1"),
                             1, ("schwarz", "moore-1.9"), 7)
        code, _, stdout_path, _, _ = runner.launch("run", cls.inv.argv)
        cls.code = code
        cls.stdout = stdout_path.read_text(encoding="utf-8")

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def failures(self, stdout, code=0, inv=None, out_file=""):
        return check_output(inv or self.inv, code, stdout, out_file).failures

    def test_real_output_passes(self):
        self.assertEqual(self.code, 0)
        self.assertEqual(self.failures(self.stdout), [])

    def test_histogram_that_does_not_sum(self):
        lines = self.stdout.splitlines()
        report = json.loads(lines[0])
        report["margin_histogram"][5] += 1
        lines[0] = json.dumps(report)
        self.assertTrue(any("histogram" in f for f in self.failures("\n".join(lines) + "\n")))

    def test_nonzero_exit(self):
        for code in (1, 2, 3, -9):
            self.assertTrue(self.failures(self.stdout, code=code), code)

    def test_missing_manifest(self):
        lines = self.stdout.splitlines()[:-1]
        self.assertTrue(any("manifest" in f for f in self.failures("\n".join(lines) + "\n")))
        self.assertTrue(self.failures(""))

    def test_totals_that_do_not_match(self):
        inv = Invocation(self.inv.argv, 1, self.inv.names, 8)
        self.assertTrue(any("totals" in f for f in self.failures(self.stdout, inv=inv)))

    def test_violation_count(self):
        lines = self.stdout.splitlines()
        report = json.loads(lines[1])
        report["violation_count"] = 1
        lines[1] = json.dumps(report)
        self.assertTrue(any("violation" in f for f in self.failures("\n".join(lines) + "\n")))

    def test_emit_instance_count(self):
        inv = Invocation(self.inv.argv + ("--emit-instances",), 1, self.inv.names, 7, emit=True)
        lines = self.stdout.splitlines()
        manifest = lines[-1] + "\n"
        instance = json.dumps({"ineq": "schwarz", "digest": "0"})
        reports = lines[:-1]
        hist = sum(json.loads(reports[0])["margin_histogram"])
        good = "\n".join([instance] * hist + [reports[0]] + [json.dumps({"ineq": "moore-1.9"})]
                         * sum(json.loads(reports[1])["margin_histogram"]) + [reports[1]])
        self.assertEqual(self.failures(manifest, inv=inv, out_file=good), [])
        short = "\n".join(good.splitlines()[1:])
        self.assertTrue(any("instance lines" in f for f in self.failures(manifest, inv=inv, out_file=short)))

    def test_moore_finding(self):
        inv = Invocation(("moore-complex", "--eps", "0.05", "--samples", "5"), 1, (), 5)
        record = {"eps": 0.05, "samples": 5, "samples_satisfying_premises": 5,
                  "verdict": "NoCounterexampleFound"}
        manifest = json.dumps({"command": "moore-complex", "totals": {"moore-complex": 5}})
        self.assertEqual(self.failures(json.dumps(record) + "\n" + manifest, inv=inv), [])
        found = dict(record, verdict="CounterexampleFound")
        self.assertTrue(self.failures(json.dumps(found) + "\n" + manifest, inv=inv, code=3))
        starved = dict(record, samples_satisfying_premises=4)
        self.assertTrue(self.failures(json.dumps(starved) + "\n" + manifest, inv=inv))

    def test_record_bytes_compare_without_timestamps(self):
        first = check_output(self.inv, 0, self.stdout)
        retimed = self.stdout.replace('"finished_at":"', '"finished_at":"1')
        self.assertEqual(check_output(self.inv, 0, retimed).record_digest, first.record_digest)
        changed = self.stdout.replace('"trials_run":7', '"trials_run":7 ', 1)
        self.assertNotEqual(check_output(self.inv, 0, changed).record_digest, first.record_digest)

    def test_differing_records_fail_the_later_pass(self):
        a, b = run.Pass(), run.Pass()
        a.digests, b.digests = ["x"], ["y"]
        b.checked = [check_output(self.inv, 0, self.stdout)]
        run._same_records(a, b, "the first pass")
        self.assertEqual(b.failed, 1)


class TestImportTimes(unittest.TestCase):
    def test_outermost_packages_and_own_self_time(self):
        sample = "\n".join([
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:       200 |        300 |   numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:        70 |        120 |   scipy",
            "import time:        10 |        430 | ineq_forge.catalog",
            "import time:         5 |          5 | ineq_forge",
        ])
        self.assertEqual(import_seconds(sample), {"numpy": 300e-6, "scipy": 120e-6, "ineq_forge": 15e-6})


class TestBenchmarkFile(unittest.TestCase):
    def test_lists_what_the_harness_reports(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([(w["name"], w["why"]) for w in spec["workloads"]],
                         [(w.name, w.why) for w in WORKLOADS.values()])
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [row[:3] for row in LAYER_METRICS])


class TestRuns(unittest.TestCase):
    """Every workload runs at tiny size, untraced and traced, with every check."""

    def test_without_sources_it_refuses(self):
        work = _work_dir()
        try:
            shutil.copy(HERE.parent / "BENCHMARK.json", work)
            shutil.copytree(HERE, work / "perfbench",
                            ignore=shutil.ignore_patterns(".work-*", "__pycache__"))
            proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
                                   "--seconds", "1", "--trace", "0"], cwd=work, capture_output=True,
                                  text=True, timeout=60)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def test_every_workload(self):
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result, env, failures = run.run_workload(name, SEED, 0, trace=False, size="tiny")
                self.assertEqual(failures, [])
                self.assertTrue(result["correct"])
                self.assertEqual(set(result["metrics"]), {n for n, _ in run.END_TO_END})
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                self.assertIn("longdouble_eps", env)

                first, _, failures = run.run_workload(name, SEED, 0, trace=True, size="tiny")
                second, _, _ = run.run_workload(name, SEED, 0, trace=True, size="tiny")
                self.assertEqual(failures, [])
                self.assertEqual(set(first["metrics"]), set(units))
                # every per-call time is measured on every workload, by the probes if need be
                for k, unit in units.items():
                    if unit in ("us", "ms"):
                        self.assertGreater(first["metrics"][k]["value"], 0, k)
                counts = {k for k, unit in units.items() if unit in COUNT_UNITS or k in COUNT_RATIOS}
                self.assertEqual({k: first["metrics"][k]["value"] for k in counts},
                                 {k: second["metrics"][k]["value"] for k in counts})


if __name__ == "__main__":
    unittest.main(verbosity=2)
