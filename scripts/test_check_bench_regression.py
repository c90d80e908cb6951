#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py on synthetic gates and records.

Run: python3 -m unittest discover -s scripts -p 'test_*.py'
"""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression  # noqa: E402

MATCH = {"bench": "b", "size": 10}


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, data):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(data, f)
        return path

    def check(self, gates, *files):
        """Exit status of the checker on `gates` and the record lists `files`."""
        argv = ["check_bench_regression.py", self.write("gates.json", gates)]
        argv += [self.write(f"BENCH_{i}.json", recs) for i, recs in enumerate(files)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return check_bench_regression.main(argv)

    def gate(self, **bounds):
        return [{"match": MATCH, **bounds}]

    def record(self, **fields):
        return [{**MATCH, **fields}]

    def test_each_bound_kind_inside_and_past(self):
        cases = [  # (bounds, inside value, past value) for field "x"
            ({"min": {"x": 2.0}}, 2.002, 1.998),
            ({"max": {"x": 2.0}}, 1.998, 2.002),
            ({"eq": {"x": True}}, True, False),
            ({"eq": {"x": 1}}, 1, 0),
            ({"max_drop": {"x": [100.0, 0.3]}}, 70.07, 69.93),
        ]
        for bounds, inside, past in cases:
            with self.subTest(bounds=bounds):
                self.assertEqual(self.check(self.gate(**bounds),
                                            self.record(x=inside)), 0)
                self.assertEqual(self.check(self.gate(**bounds),
                                            self.record(x=past)), 1)

    def test_bound_is_inclusive(self):
        self.assertEqual(self.check(self.gate(min={"x": 2}), self.record(x=2)), 0)
        self.assertEqual(self.check(self.gate(max={"x": 2}), self.record(x=2)), 0)

    def test_gate_without_a_matching_record_fails(self):
        other = [{"bench": "b", "size": 11, "x": 5}]
        self.assertEqual(self.check(self.gate(min={"x": 1}), other), 1)
        self.assertEqual(self.check(self.gate(min={"x": 1}), []), 1)

    def test_bounded_field_missing_from_matched_record_fails(self):
        for kind, bound in (("min", 0), ("max", 9), ("eq", 1),
                            ("max_drop", [1, 0.5])):
            with self.subTest(kind=kind):
                self.assertEqual(self.check(self.gate(**{kind: {"x": bound}}),
                                            self.record(y=1)), 1)

    def test_non_number_value_fails_numeric_bound(self):
        self.assertEqual(self.check(self.gate(min={"x": 1}), self.record(x="9")), 1)
        self.assertEqual(self.check(self.gate(max={"x": 1}), self.record(x=None)), 1)

    def test_every_matching_record_is_checked(self):
        gates = self.gate(min={"x": 1})
        self.assertEqual(self.check(gates, self.record(x=0), self.record(x=5)), 1)
        self.assertEqual(self.check(gates, self.record(x=5), self.record(x=0)), 1)
        self.assertEqual(self.check(gates, self.record(x=5) + self.record(x=6)), 0)

    def test_every_gate_is_checked(self):
        gates = self.gate(min={"x": 1}) + [{"match": {"bench": "c"}, "max": {"y": 1}}]
        recs = self.record(x=5) + [{"bench": "c", "y": 2}]
        self.assertEqual(self.check(gates, recs), 1)
        recs[-1]["y"] = 1
        self.assertEqual(self.check(gates, recs), 0)

    def test_skip_if_hw_threads_lt_skips_all_but_eq(self):
        gates = self.gate(min={"s": 1.5}, max={"t": 1}, max_drop={"v": [10, 0.1]},
                          eq={"same": True}, skip_if_hw_threads_lt=4)
        slow = {"s": 0.5, "t": 2, "v": 1, "same": True}
        self.assertEqual(self.check(gates, self.record(hw_threads=1, **slow)), 0)
        self.assertEqual(self.check(gates, self.record(hw_threads=4, **slow)), 1)
        self.assertEqual(self.check(gates, self.record(**slow)), 1)
        diverged = dict(slow, same=False)
        self.assertEqual(self.check(gates, self.record(hw_threads=1, **diverged)), 1)
        fast = {"s": 2.0, "t": 1, "v": 10, "same": True}
        self.assertEqual(self.check(gates, self.record(hw_threads=64, **fast)), 0)

    def test_malformed_gates_are_refused(self):
        refused = [
            {"match": MATCH, "mni": {"x": 1}},
            {"match": MATCH, "min": {"x": 1}, "mni": {"x": 9}},
            {"match": MATCH},
            {"match": MATCH, "min": {}},
            {"min": {"x": 1}},
            {"match": {}, "min": {"x": 1}},
            {"match": MATCH, "min": {"x": "1"}},
            {"match": MATCH, "min": [1]},
            {"match": MATCH, "max_drop": {"x": 100}},
            {"match": MATCH, "max_drop": {"x": [100]}},
            {"match": MATCH, "min": {"x": 1}, "skip_if_hw_threads_lt": "4"},
        ]
        for gate in refused:
            with self.subTest(gate=gate):
                self.assertEqual(self.check([gate], self.record(x=5)), 2)

    def test_non_array_files_are_refused(self):
        self.assertEqual(self.check({"match": MATCH, "min": {"x": 1}},
                                    self.record(x=5)), 2)
        self.assertEqual(self.check(self.gate(min={"x": 1}), {"x": 5}), 2)
        self.assertEqual(self.check(self.gate(min={"x": 1}), [1, 2]), 2)

    def test_unreadable_file_and_usage_errors(self):
        gates = self.write("gates.json", self.gate(min={"x": 1}))
        broken = os.path.join(self.tmp.name, "broken.json")
        with open(broken, "w") as f:
            f.write("[{")
        for argv in ([gates], [gates, os.path.join(self.tmp.name, "absent.json")],
                     [gates, broken], [gates, "--max-regression", "0.3"]):
            with self.subTest(argv=argv), \
                    contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(check_bench_regression.main(["prog", *argv]), 2)

    def test_checked_in_gates_file_is_well_formed(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                            "bench", "baselines", "smoke_gates.json")
        with open(path) as f:
            gates = json.load(f)
        for gate in gates:
            check_bench_regression.check_gate_shape(gate)
        bounds = sum(len(gate.get(k, {})) for gate in gates
                     for k in check_bench_regression.BOUNDS)
        self.assertEqual((len(gates), bounds), (32, 144))


if __name__ == "__main__":
    unittest.main()
