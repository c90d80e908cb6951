#!/usr/bin/env python3
"""Check bench JSON artifacts against a declarative gates file.

Usage: check_bench_regression.py GATES CURRENT [CURRENT ...]

GATES (bench/baselines/smoke_gates.json) and every CURRENT file (a
BENCH_<name>.json artifact) hold a JSON array of objects. Each gate object
may have only these keys:

  match                  {key: value, ...}: a current record matches the gate
                         when it has every key with an equal value. Every
                         matching record, in every CURRENT file, is checked.
  min, max               {field: bound, ...}: fails below min, above max.
  eq                     {field: value, ...}: fails unless equal.
  max_drop               {field: [reference, fraction], ...}: fails below
                         reference * (1 - fraction).
  skip_if_hw_threads_lt  n: when the matched record's hw_threads is below n,
                         its min, max and max_drop bounds are skipped (a small
                         runner cannot show parallel speedup); eq never is.
  comment                free text: reasons, and reference numbers not gated.

A gate needs a non-empty match and at least one bound. A gate that no record
matches fails, and so does a bounded field missing from a matched record.

Exit status: 0 when every gate holds, 1 when any gate fails, 2 on a usage
error or a malformed GATES or CURRENT file.
"""

import json
import numbers
import sys


def number(x):
    return isinstance(x, numbers.Real)


# kind: (is the gate's bound well formed, does a record's value satisfy it)
BOUNDS = {
    "min": (number, lambda value, bound: number(value) and value >= bound),
    "max": (number, lambda value, bound: number(value) and value <= bound),
    "eq": (lambda bound: True, lambda value, bound: value == bound),
    "max_drop": (
        lambda b: isinstance(b, list) and len(b) == 2 and all(map(number, b)),
        lambda value, b: number(value) and value >= b[0] * (1 - b[1])),
}
KEYS = {"match", "skip_if_hw_threads_lt", "comment", *BOUNDS}


def load_array(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        raise ValueError(f"{path}: {e}")
    if not isinstance(data, list) or not all(isinstance(r, dict) for r in data):
        raise ValueError(f"{path}: expected a JSON array of objects")
    return data


def check_gate_shape(gate):
    """Raises ValueError unless `gate` follows the schema in the docstring."""
    problem = None
    if set(gate) - KEYS:
        problem = f"unknown keys {sorted(set(gate) - KEYS)}"
    elif not isinstance(gate.get("match"), dict) or not gate["match"]:
        problem = "needs a non-empty match object"
    elif not all(isinstance(gate.get(k, {}), dict) for k in BOUNDS):
        problem = "each bound kind must be an object"
    elif not any(gate.get(k) for k in BOUNDS):
        problem = "no bound"
    elif not all(BOUNDS[k][0](b) for k in BOUNDS for b in gate.get(k, {}).values()):
        problem = "min/max want a number, max_drop [reference, fraction]"
    elif not number(gate.get("skip_if_hw_threads_lt", 0)):
        problem = "skip_if_hw_threads_lt wants a number"
    if problem:
        raise ValueError(f"gate {json.dumps(gate.get('match'))}: {problem}")


def main(argv):
    if len(argv) < 3 or any(a.startswith("-") for a in argv[1:]):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        gates = load_array(argv[1])
        for gate in gates:
            check_gate_shape(gate)
        records = [r for path in argv[2:] for r in load_array(path)]
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failed = 0
    for gate in gates:
        name = " ".join(f"{k}={json.dumps(v)}" for k, v in gate["match"].items())
        matched = [r for r in records
                   if all(k in r and r[k] == v for k, v in gate["match"].items())]
        bad = not matched
        lines = ["      MISSING: no record matches"] if bad else []
        for rec in matched:
            hw = rec.get("hw_threads")
            skip = number(hw) and hw < gate.get("skip_if_hw_threads_lt", 0)
            for kind, (_, holds) in BOUNDS.items():
                for field, bound in gate.get(kind, {}).items():
                    got = json.dumps(rec[field]) if field in rec else "MISSING"
                    if skip and kind != "eq":
                        verdict = f"skipped: hw_threads {hw}"
                    elif field in rec and holds(rec[field], bound):
                        verdict = "ok"
                    else:
                        verdict, bad = "<< FAIL", True
                    lines.append(f"      {field:<31} {kind:<8} "
                                 f"{json.dumps(bound):<20} got {got:<12} {verdict}")
        print(f"{'FAIL' if bad else 'ok':<5} {name}", *lines, sep="\n")
        failed += bad
    print(f"\n{len(gates)} gates, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
