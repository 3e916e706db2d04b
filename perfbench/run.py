#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/main.exe and the amsvp
binary (the serve workload's daemon) with dune, then hands the
arguments to perfbench/main.exe, whose last stdout line is the result.
Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")
AMSVP = os.path.join("_build", "default", "bin", "amsvp.exe")


def main():
    os.chdir(ROOT)
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2",
         "./perfbench/main.exe", "./bin/amsvp.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run(
        [MAIN, *sys.argv[1:], "--amsvp", AMSVP, "--work-dir", ".perfbench"],
        env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
