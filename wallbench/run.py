#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs one workload.

Usage (from the repo root):
    python3 wallbench/run.py --workload <power_r22|dialog_landscape|batch_load>
        --seed <n> --seconds <n> --trace <0|1>

The build goes to .bench_build/wallbench under the repo root; the first run
compiles (a few minutes), later runs only check it is up to date. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The arguments are passed through unchanged and
checked by the benchmark itself (a bad one exits with code 2). A failed
build exits with code 1 and prints no result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "wallbench")
JOBS = str(min(4, os.cpu_count() or 1))


def build():
    # Configuring again is cheap and repairs a build tree left half-made.
    steps = [["cmake", "-S", HERE, "-B", BUILD],
             ["cmake", "--build", BUILD, "--target", "wallbench", "-j", JOBS]]
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr,
                                stderr=sys.stderr).returncode
        except OSError as e:
            print("wallbench: cannot run %s: %s" % (cmd[0], e), file=sys.stderr)
            return False
        if rc != 0:
            print("wallbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    if not build():
        return 1
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "wallbench")] + sys.argv[1:]
                          ).returncode


if __name__ == "__main__":
    sys.exit(main())
