#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload smr-ladder --seed 1 --seconds 20 --trace 0

The arguments are passed to perfbench/main.exe unchanged (see main.ml and
METRICS.md). The build goes to .bench_build/ in the checkout, with dune's
shared cache disabled so nothing is written outside the checkout. Exits
non-zero without printing a result when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
TARGET = "./perfbench/main.exe"


def main():
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    if not os.path.exists(os.path.join(ROOT, "dune-project")):
        print("perfbench: no dune-project at %s; not a checkout of the repository" % ROOT,
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--display", "quiet",
         "--profile", "release", TARGET],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
