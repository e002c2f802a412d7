#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run one
workload.

Usage:
    python3 perfbench/run.py --workload <fillrandom|ycsb_c|ycsb_a|ycsb_e>
        --seed <n> --seconds <n> --trace <0|1> [--preload <n>]
        [--inject <value|version|row>]

The driver is compiled with CMake into .bench_build/perfbench at the
root of the checkout (nothing is written elsewhere). Its output is
relayed, a host fingerprint line is added, and the driver's result --
one JSON object with "correct", "attempted", "failed" and "metrics" --
stays the last line of stdout. --preload shrinks the dataset for the
self-test; --inject corrupts one checked result to prove the checker
catches it. The exit status is the driver's: 0 when every check passed,
1 when one failed, 2 for a usage error; a failed build exits 1 without
printing a result. ycsb_a runs but is not among BENCHMARK.json's
workloads: on the current store some of its runs fail their checks
(README.md says why).
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("fillrandom", "ycsb_c", "ycsb_a", "ycsb_e")
# The driver's own deadline; the benchmark must end within 180 s.
RUN_TIMEOUT_S = 170


def whole_number(lo, hi):
    def parse(text):
        if not re.fullmatch(r"[0-9]+", text):
            raise argparse.ArgumentTypeError(
                f"needs a whole number, got {text!r}")
        value = int(text)
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(
                f"must be in [{lo}, {hi}], got {text}")
        return value
    return parse


def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Run one MioDB benchmark workload.",
        allow_abbrev=False)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=whole_number(0, 2**32 - 1))
    p.add_argument("--seconds", required=True, type=whole_number(1, 60))
    p.add_argument("--trace", required=True, type=whole_number(0, 1))
    p.add_argument("--preload", type=whole_number(1000, 10_000_000))
    p.add_argument("--inject", choices=("value", "version", "row"))
    return p.parse_args(argv)


def build():
    """Configure and build incrementally; False on failure."""
    env = dict(os.environ)
    # Compiler scratch files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
    ]
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode:
            return False
    return True


def loadavg():
    return [round(x, 2) for x in os.getloadavg()]


def cpu_ticks():
    """Aggregate CPU tick counters of the host, or None if unreadable."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor gave to other guests between two
    cpu_ticks() readings: the main source of run-to-run spread on a
    shared host."""
    if not before or not after or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return round(delta[7] / total, 4) if total > 0 else None


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "perfbench_driver"),
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.preload is not None:
        cmd.append(f"--preload={args.preload}")
    if args.inject is not None:
        cmd.append(f"--inject={args.inject}")
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace-out=" +
                   os.path.join(traces, f"{args.workload}.csv"))

    ticks_before = cpu_ticks()
    fingerprint = {"nproc": os.cpu_count(), "loadavg_before": loadavg(),
                   "build_type": BUILD_TYPE, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    fingerprint["loadavg_after"] = loadavg()
    fingerprint["cpu_steal_share"] = steal_share(ticks_before, cpu_ticks())

    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        print(f"perfbench: driver exited {proc.returncode} without a "
              "result", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps({"fingerprint": fingerprint}))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
