"""Tests of the benchmark's own checks.

Run from the repository root:

    python3 -m unittest discover -s perfbench/tests -v

They build the benchmark binary through perfbench/run.py and take a few
minutes, most of it in the traced campaign_cold run.
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402

EXPECTED = os.path.join(run.HERE, "expected.json")


def perturb(digest):
    """The digest with its last hex digit changed."""
    return digest[:-1] + ("0" if digest[-1] != "0" else "1")


class BinaryTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()

    def run_workload(self, workload, expected=EXPECTED, trace=False,
                     seconds=0.5):
        rc, out = run.run_binary(self.binary, workload, 1, seconds, trace,
                                 expected)
        self.assertEqual(rc, 0, out)
        return json.loads(out.strip().split("\n")[-1]), out


class OutputCheckTest(BinaryTest):
    def test_stored_expectations_pass(self):
        for workload in ("campaign_warm", "serve_fleet"):
            with self.subTest(workload=workload):
                result, out = self.run_workload(workload)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_perturbed_expectation_fails_the_ops(self):
        with open(EXPECTED) as f:
            stored = json.load(f)
        for key in stored:
            workload = key.split(".")[0]
            with self.subTest(key=key):
                bad = dict(stored)
                bad[key] = perturb(bad[key])
                with tempfile.NamedTemporaryFile(
                        "w", suffix=".json", delete=False) as f:
                    json.dump(bad, f)
                try:
                    result, out = self.run_workload(workload, f.name)
                finally:
                    os.unlink(f.name)
                self.assertFalse(result["correct"], out)
                self.assertIn("CHECK FAILED", out)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(result["failed"], result["attempted"])


class ReconciliationTest(BinaryTest):
    @classmethod
    def setUpClass(cls):
        super().setUpClass()
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.layers = {m["name"] for m in json.load(f)["per_layer"]}

    def test_checker_flags_a_ledger_over_its_bound(self):
        over = ("ledger demo: measured phase 1.000000 s\n"
                "  layer.a                          0.850000 s   85.00%\n"
                "  unattributed                     0.150000 s   15.00%"
                " (bound 10.0%)\n")
        within = over.replace("0.850000 s   85.00%", "0.950000 s   95.00%") \
                     .replace("0.150000 s   15.00%", "0.050000 s    5.00%")
        self.assertEqual(len(run.ledger_violations(over)), 1)
        self.assertEqual(run.ledger_violations(within), [])

    def test_traced_runs_reconcile_within_bound(self):
        reported = set()
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result, out = self.run_workload(workload, trace=True,
                                                seconds=1)
                self.assertTrue(run.ledgers(out), out)
                self.assertEqual(run.ledger_violations(out), [], out)
                self.assertTrue(result["correct"], out)
                reported |= set(result["metrics"])
        # run.py reads a layer a workload skips as 0; each layer must be
        # measured by some workload.
        self.assertEqual(self.layers - reported, set())


if __name__ == "__main__":
    unittest.main()
