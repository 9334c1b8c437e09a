#!/usr/bin/env python3
"""Build and run the pushpull benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The perfbench binary is (re)built from
source into .bench_build/perfbench first; build output goes to standard
error, so the last line of standard output is perfbench's JSON result.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("explore-full", "explore-por", "fuzz", "stress", "audit")


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--timed-seed", type=int, default=11,
                   help="input seed of the timed fuzz and stress runs "
                        "(12 is the held-out seed)")
    p.add_argument("--self-test", action="store_true",
                   help="run the fault-injection self-test instead")
    a = p.parse_args()
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [exe, "--root", ROOT, "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--timed-seed", str(a.timed_seed)]
    if a.self_test:
        cmd.append("--self-test")
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
