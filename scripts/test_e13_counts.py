#!/usr/bin/env python3
"""Unit tests for e13_counts.py with run.py stubbed out.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest
from unittest import mock

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import e13_counts  # noqa: E402

KEYS = {"bench", "workload", "seed", *e13_counts.FIELDS}


def result(correct=True, **extra):
    """A run.py result object carrying every field plus `extra` metrics."""
    metrics = {field: {"value": i + 0.5, "unit": "1/tx"}
               for i, field in enumerate(e13_counts.FIELDS)}
    metrics.update({name: {"value": v, "unit": "ratio"}
                    for name, v in extra.items()})
    return {"correct": correct, "attempted": 10, "failed": 0,
            "metrics": metrics}


class E13CountsTest(unittest.TestCase):
    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        cwd = os.getcwd()
        os.chdir(tmp.name)
        self.addCleanup(os.chdir, cwd)

    def main(self, runs, argv=("e13_counts.py",)):
        """Exit status of main() with run() answering from `runs`."""
        with mock.patch.object(e13_counts, "run", side_effect=runs), \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return e13_counts.main(list(argv))

    def test_record_carries_the_five_counts_and_nothing_else(self):
        rec = e13_counts.record("quota_trunk", result(**{"sim.flow.share": 0.7}))
        self.assertEqual(set(rec), KEYS)
        self.assertEqual((rec["bench"], rec["workload"], rec["seed"]),
                         ("e13_counts", "quota_trunk", 711))
        for i, field in enumerate(e13_counts.FIELDS):
            self.assertEqual(rec[field], i + 0.5)

    def test_a_missing_field_is_an_error(self):
        broken = result()
        del broken["metrics"]["sim.flow.reallocs_per_tx"]
        with self.assertRaises(KeyError):
            e13_counts.record("decl_steady", broken)

    def test_writes_one_record_per_workload_in_order(self):
        self.assertEqual(self.main(lambda workload: result()), 0)
        with open(e13_counts.OUT) as f:
            records = json.load(f)
        self.assertEqual([r["workload"] for r in records],
                         list(e13_counts.WORKLOADS))
        for rec in records:
            self.assertEqual(set(rec), KEYS)

    def test_a_failed_or_incorrect_run_writes_nothing(self):
        for last in (None, result(correct=False)):
            with self.subTest(last=last):
                self.assertEqual(self.main([result(), result(), last]), 1)
                self.assertFalse(os.path.exists(e13_counts.OUT))

    def test_arguments_are_a_usage_error(self):
        self.assertEqual(self.main([], argv=("e13_counts.py", "--seed", "1")),
                         2)


if __name__ == "__main__":
    unittest.main()
