#!/usr/bin/env python3
"""Run seeded gtest suites over a range of seeds; stop at the first failure.

Usage: seed_sweep.py --seeds FIRST..LAST [--iters K] BINARY:FILTER [...]

For every seed from FIRST to LAST, each BINARY runs once with TN_SEED set
(and TN_ITERS, when --iters is given) as

    BINARY --gtest_brief=1 --gtest_filter=FILTER

Only the first ':' separates the binary from its filter, so a filter may
list several patterns the gtest way ('A.*:B.*'). At the first failing run
the sweep prints the line that reproduces it,

    TN_SEED=<n> [TN_ITERS=<k>] BINARY --gtest_filter=FILTER

and exits 1. Exit status: 0 when every run passed, 1 on a failure, 2 on a
usage error or a binary that cannot be started.
"""

import argparse
import os
import subprocess
import sys


def seed_range(text):
    first, sep, last = text.partition("..")
    if not sep or not first.isdigit() or not last.isdigit() or int(first) > int(last):
        raise argparse.ArgumentTypeError(f"expected FIRST..LAST, got {text!r}")
    return range(int(first), int(last) + 1)


def suite(text):
    binary, sep, gtest_filter = text.partition(":")
    if not sep or not binary or not gtest_filter:
        raise argparse.ArgumentTypeError(f"expected BINARY:FILTER, got {text!r}")
    return binary, gtest_filter


def main(argv):
    parser = argparse.ArgumentParser(prog=os.path.basename(argv[0]),
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=seed_range)
    parser.add_argument("--iters", type=int)
    parser.add_argument("suites", nargs="+", type=suite, metavar="BINARY:FILTER")
    try:
        args = parser.parse_args(argv[1:])
    except SystemExit as e:
        return 2 if e.code else 0

    for seed in args.seeds:
        env = dict(os.environ, TN_SEED=str(seed))
        repro = f"TN_SEED={seed}"
        if args.iters is not None:
            env["TN_ITERS"] = str(args.iters)
            repro += f" TN_ITERS={args.iters}"
        for binary, gtest_filter in args.suites:
            try:
                result = subprocess.run(
                    [binary, "--gtest_brief=1", f"--gtest_filter={gtest_filter}"],
                    env=env)
            except OSError as e:
                print(f"{binary}: {e}", file=sys.stderr)
                return 2
            if result.returncode != 0:
                print(f"{repro} {binary} --gtest_filter={gtest_filter}", flush=True)
                return 1
    print(f"seed sweep passed: seeds {args.seeds.start}..{args.seeds.stop - 1}, "
          f"{len(args.suites)} suite(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
