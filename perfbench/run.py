#!/usr/bin/env python3
"""Build the benchmark from source and run one measurement.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The benchmark is
built with dune (the first run compiles the libraries it links) and
its last line of output is the JSON result.  Exits non-zero, without a
result, when the repository sources are not there.
"""
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORK = ".perfbench_work"
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def main():
    os.chdir(ROOT)
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: dune-project and lib/ not found; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    dune = shutil.which("dune")
    if dune is None:
        print("perfbench: dune not found on PATH", file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run([dune, "build", "--root", ".", TARGET],
                               env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT)
        if build.returncode != 0:
            return build.returncode
        return subprocess.run([EXE] + sys.argv[1:],
                              timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired as ex:
        print(f"perfbench: timed out: {' '.join(ex.cmd)}", file=sys.stderr)
        return 124
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
