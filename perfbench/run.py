#!/usr/bin/env python3
"""Build the benchmark program from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is built with dune into the
checkout's own _build directory (dune's shared cache off, so nothing is
written outside the checkout); build messages go to stderr. The program's
stdout is passed through unchanged: its last line is the result object.
See perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(no dune-project and lib/ here)", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:], stdin=subprocess.DEVNULL)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
