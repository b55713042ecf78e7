#!/usr/bin/env python3
"""Build bench_approx from this checkout's sources, then run it.

Usage (from the repository root):
    python3 bench/approx/run.py --workload NAME --seed N --seconds T --trace 0|1

Configures bench/approx/CMakeLists.txt into .bench_build/approx (Release)
on first use and rebuilds incrementally after that; build output goes to
stderr so the benchmark's last stdout line stays its JSON result. Every
argument is passed through to the binary, which this script replaces
(exec), so no process outlives the run. Exits 1 without a result when the
checkout holds no sources to build.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "approx")
BINARY = os.path.join(BUILD, "bench_approx")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("bench_approx: no src/ next to bench/approx; nothing to build",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", BUILD, "--target", "bench_approx", "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    if not build():
        return 1
    sys.stdout.flush()
    os.execv(BINARY, [BINARY] + sys.argv[1:])
    return 1


if __name__ == "__main__":
    sys.exit(main())
