#!/usr/bin/env python3
"""Self-test of the benchmark itself, at a tiny size.

Usage:
    python3 perfbench/selftest.py

Checks, through run.py exactly as the benchmark is run:
  * every workload BENCHMARK.json lists, untraced and traced, ends with
    a result line that holds every metric BENCHMARK.json names for that
    mode, each with its declared unit, and reports zero failures;
  * a result corrupted on purpose (a flipped value byte, a raised
    expected version, a dropped scan row) is caught: the run reports a
    failure and exits non-zero;
  * malformed or unknown flags are refused without a result.
Exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
TINY = ["--preload", "3000", "--seconds", "1"]


def run(args):
    proc = subprocess.run(RUN + args, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []

    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            what = f"{w} trace={trace}"
            rc, result, err = run(["--workload", w, "--seed", "7",
                                   "--trace", str(trace)] + TINY)
            if rc != 0 or result is None:
                problems.append(f"{what}: exit {rc}\n{err}")
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{what}: reported failures: {err}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{what}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expected[trace]))}")
            print(f"ok   {what}: {result['attempted']} ops checked")

    # The checker must catch each kind of wrong result.
    for w, inject in (("fillrandom", "value"), ("ycsb_c", "value"),
                      ("ycsb_c", "version"), ("ycsb_e", "row")):
        what = f"{w} inject={inject}"
        rc, result, _ = run(["--workload", w, "--seed", "7", "--trace",
                             "0", "--inject", inject] + TINY)
        if rc == 0 or result is None or result["correct"] or \
                result["failed"] < 1:
            problems.append(f"{what}: corruption not caught (exit {rc})")
        else:
            print(f"ok   {what}: caught, exit {rc}")

    # Strict command line: each must be refused with no result.
    base = ["--workload", "ycsb_c", "--seed", "1", "--trace", "0"]
    for bad in (base + ["--seconds", "banana"],
                base + ["--seconds", "1", "--preload", "1e4"],
                base + ["--seconds", "1", "--sede", "2"],
                ["--workload", "ycsb_z", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                base):
        rc, result, _ = run(bad)
        if rc == 0 or result is not None:
            problems.append(f"accepted bad command line {bad}")
        else:
            print(f"ok   refused {' '.join(bad)}")

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
