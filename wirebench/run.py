#!/usr/bin/env python3
"""Build wirebench from the checkout's sources, then run it.

    python3 wirebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to .bench_build/wirebench
(configured once, then incremental); build output goes to stderr so the
benchmark's own stdout ends with its JSON result line. Exits non-zero,
without a result, when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(".bench_build", "wirebench")
BUILD = os.path.join(WORK, "build")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    # Configure until a configure has succeeded (it writes the Makefile).
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "wirebench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    if not build():
        print("wirebench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(BUILD, "wirebench")
    return subprocess.run([binary, "--workdir", WORK] + sys.argv[1:],
                          cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
