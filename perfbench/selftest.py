"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py        # from the root of a checkout

They check that seeded inputs are deterministic, that the correctness gate
trips when a negative control is fed in as a positive input, that metric
names and units agree between BENCHMARK.json and the code, that the
quantile estimator is right, and that the benchmark refuses to run where
there is no package source.
"""
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
from session import Session  # noqa: E402
from workloads import WORKLOADS, HypTiling, verdict_check  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _fingerprint(value, h):
    """Hash the inputs a workload generated: arrays, numbers, files named in work."""
    if isinstance(value, np.ndarray):
        h.update(value.tobytes())
    elif isinstance(value, (list, tuple)):
        for item in value:
            _fingerprint(item, h)
    elif hasattr(value, "__dict__") and not isinstance(value, (Session, type)):
        for key in sorted(vars(value)):
            _fingerprint(getattr(value, key), h)
    elif isinstance(value, (int, float, str, bytes)):
        h.update(repr(value).encode())


class Harness(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(ROOT, ".perfbench_out"))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def prepared(self, name, seed):
        session = Session(ROOT, tempfile.mkdtemp(dir=self.work))
        workload = WORKLOADS[name](session, seed)
        workload.prepare()
        h = hashlib.sha256()
        _fingerprint(sorted((k, v) for k, v in vars(workload).items() if k != "s"), h)
        for fname in sorted(os.listdir(session.work)):
            with open(session.path(fname), "rb") as fh:
                h.update(fh.read())
        return session, workload, h.hexdigest()


class SeededInputs(Harness):
    def test_same_seed_same_inputs(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                first = self.prepared(name, 7)[2]
                again = self.prepared(name, 7)[2]
                other = self.prepared(name, 8)[2]
                self.assertEqual(first, again)
                self.assertNotEqual(first, other)


class GateTrips(Harness):
    """A negative control passed off as a positive input must fail the gate."""

    def failed_ops(self, session):
        return sum(not op.ok for op in session.ops)

    def test_planar_catalog(self):
        session, workload, _ = self.prepared("planar-catalog", 3)
        tag, _, probes = workload.items[0]
        workload._configuration(tag, workload.negative, probes)
        self.assertGreater(self.failed_ops(session), 0)

    def test_hyp_tiling(self):
        session, _, _ = self.prepared("hyp-tiling", 3)
        session.cli("cli.verify", HypTiling.NEGATIVE, verdict_check(0, "pass"))
        self.assertEqual(self.failed_ops(session), 1)

    def test_same_output_across_passes(self):
        session = Session(ROOT, self.work)
        session.begin_pass("p0")
        session.call("op", lambda: 1, output=lambda r: r)
        session.begin_pass("p1")
        session.call("op", lambda: 2, output=lambda r: r)
        self.assertEqual([op.ok for op in session.ops], [True, False])


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            self.bench = json.load(fh)

    def test_names_and_units_are_well_formed(self):
        entries = self.bench["end_to_end"] + self.bench["per_layer"] + self.bench["workloads"]
        names = [e["name"] for e in entries]
        self.assertEqual(len(names), len(set(names)))
        for entry in entries:
            self.assertRegex(entry["name"], NAME)
            if "unit" in entry:
                self.assertRegex(entry["unit"], UNIT)

    def test_code_and_benchmark_agree(self):
        self.assertEqual({e["name"]: e["unit"] for e in self.bench["end_to_end"]}, run.END_TO_END_UNITS)
        per_layer = dict(layers.UNITS)
        per_layer[layers.OVERHEAD_METRIC[0]] = layers.OVERHEAD_METRIC[1]
        self.assertEqual({e["name"]: e["unit"] for e in self.bench["per_layer"]}, per_layer)
        self.assertEqual({w["name"] for w in self.bench["workloads"]}, set(WORKLOADS))


class Quantile(unittest.TestCase):
    def test_beta_cdf_closed_forms(self):
        for x in (0.1, 0.5, 0.9):
            self.assertAlmostEqual(run.beta_cdf(1.0, 1.0, x), x, places=12)  # uniform
            self.assertAlmostEqual(run.beta_cdf(2.0, 1.0, x), x * x, places=12)  # I_x(a, 1) = x^a
        self.assertAlmostEqual(run.beta_cdf(60.5, 60.5, 0.5), 0.5, places=12)

    def test_harrell_davis(self):
        self.assertEqual(run.quantile([3.0], 0.5), 3.0)
        self.assertAlmostEqual(run.quantile([5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0, places=12)
        values = list(range(100))
        self.assertAlmostEqual(run.quantile(values, 0.1) + run.quantile(values, 0.9), 99.0, places=9)
        # a gap at the median moves the estimate smoothly, not by the gap
        clustered = [1.0] * 60 + [10.0] * 61
        shifted = [1.0] * 61 + [10.0] * 60
        self.assertLess(run.quantile(clustered, 0.5) - run.quantile(shifted, 0.5), 2.0)


class BareDirectory(unittest.TestCase):
    def test_refuses_without_package_source(self):
        with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench_out")) as bare:
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "planar-catalog", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
