#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tpcc-paper --seed 1 --seconds 20 --trace 0

All arguments are passed to perfbench/main.exe (see README.md). The build
output goes to stderr; the last line of stdout is the JSON result. The
exit code is non-zero, and no result is printed, when the checkout is
incomplete, the build fails or the run fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of a full checkout "
              "(dune-project and lib/ are missing)", file=sys.stderr)
        return 2
    # Keep every build artefact inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
