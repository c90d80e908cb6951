"""Determinism tests for the E13 benchmark's outcome fingerprint.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Builds the benchmark like run.py does, then checks on every workload that
one seed gives the same fingerprint twice, that two seeds give different
ones, and that a traced episode matches its untraced twin (the binary checks
that itself and reports it in "correct").
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py)


def run_once(workload, seed, trace=0):
    """Runs the fewest episodes the binary allows; the binary itself checks
    that they share one fingerprint."""
    done = subprocess.run(
        [run.BINARY, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=run.RUN_TIMEOUT_S)
    fingerprint = re.search(r"^fingerprint ([0-9a-f]{16}) ", done.stderr,
                            re.MULTILINE).group(1)
    return fingerprint, json.loads(done.stdout.splitlines()[-1])


class FingerprintTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise unittest.SkipTest("benchmark build failed")

    def test_same_seed_same_fingerprint(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first, result = run_once(workload, 5)
                second, _ = run_once(workload, 5)
                self.assertEqual(first, second)
                self.assertTrue(result["correct"])

    def test_different_seeds_differ(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(run_once(workload, 5)[0],
                                    run_once(workload, 6)[0])

    def test_traced_matches_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced, _ = run_once(workload, 7)
                traced, result = run_once(workload, 7, trace=1)
                self.assertEqual(untraced, traced)
                self.assertTrue(result["correct"])
                coverage = result["metrics"]["bench.ledger.coverage"]["value"]
                self.assertGreaterEqual(coverage, 0.95)


if __name__ == "__main__":
    unittest.main()
