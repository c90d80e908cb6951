#!/usr/bin/env python3
"""Unit tests for seed_sweep.py against a stub test binary.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import os
import stat
import sys
import tempfile
import textwrap
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import seed_sweep  # noqa: E402

# A stand-in for a gtest binary: logs each call as "<name> <seed> <iters>
# <args...>" and fails when TN_SEED equals its FAIL_SEED.
STUB = """\
#!{python}
import os, sys
with open({log!r}, "a") as log:
    log.write(" ".join([{name!r}, os.environ.get("TN_SEED", "-"),
                        os.environ.get("TN_ITERS", "-")] + sys.argv[1:]) + "\\n")
sys.exit(1 if os.environ.get("TN_SEED") == {fail_seed!r} else 0)
"""


class SeedSweepTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.log = os.path.join(self.tmp.name, "calls.log")

    def stub(self, name, fail_seed=None):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(STUB.format(python=sys.executable, log=self.log, name=name,
                                fail_seed=str(fail_seed)))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def sweep(self, *args):
        """(exit status, stdout) of one sweep."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            status = seed_sweep.main(["seed_sweep.py", *args])
        return status, out.getvalue()

    def calls(self):
        if not os.path.exists(self.log):
            return []
        with open(self.log) as f:
            return [line.split() for line in f.read().splitlines()]

    def test_every_seed_runs_every_suite_in_order(self):
        a, b = self.stub("a"), self.stub("b")
        status, out = self.sweep("--seeds", "1..3", f"{a}:A.*", f"{b}:B.*:C.*")
        self.assertEqual(status, 0)
        self.assertIn("seed sweep passed", out)
        self.assertEqual(
            [call[:3] for call in self.calls()],
            [["a", "1", "-"], ["b", "1", "-"], ["a", "2", "-"],
             ["b", "2", "-"], ["a", "3", "-"], ["b", "3", "-"]])
        self.assertEqual(self.calls()[1][3:],
                         ["--gtest_brief=1", "--gtest_filter=B.*:C.*"])

    def test_stops_at_the_first_failure_and_prints_the_repro_line(self):
        a, b = self.stub("a"), self.stub("b", fail_seed=3)
        status, out = self.sweep("--seeds", "1..10", "--iters", "300",
                                 f"{a}:A.*", f"{b}:B.*:C.*")
        self.assertEqual(status, 1)
        self.assertEqual(out.splitlines()[-1],
                         f"TN_SEED=3 TN_ITERS=300 {b} --gtest_filter=B.*:C.*")
        calls = self.calls()
        self.assertEqual(calls[-1][:3], ["b", "3", "300"])
        self.assertEqual(len(calls), 6)  # nothing after the failing run

    def test_repro_line_omits_iters_when_not_given(self):
        a = self.stub("a", fail_seed=2)
        status, out = self.sweep("--seeds", "2..2", f"{a}:A.*")
        self.assertEqual(status, 1)
        self.assertEqual(out.splitlines()[-1], f"TN_SEED=2 {a} --gtest_filter=A.*")

    def test_usage_errors(self):
        a = self.stub("a")
        for args in (["--seeds", "5..1", f"{a}:A.*"],
                     ["--seeds", "1-5", f"{a}:A.*"],
                     ["--seeds", "1..5", a],
                     ["--seeds", "1..5"],
                     [f"{a}:A.*"],
                     ["--seeds", "1..2", os.path.join(self.tmp.name, "absent") + ":A.*"]):
            with self.subTest(args=args):
                self.assertEqual(self.sweep(*args)[0], 2)
        self.assertEqual(self.calls(), [])


if __name__ == "__main__":
    unittest.main()
