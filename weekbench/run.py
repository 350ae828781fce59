#!/usr/bin/env python3
"""Build the week benchmark from source, then run one workload.

Usage, from the root of the repository:

    python3 weekbench/run.py --workload week-trace --seed 1 --seconds 36 --trace 0

The first call configures and compiles weekbench/ (which compiles ../src)
into .bench_build/weekbench; later calls only re-check the build. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Every argument is passed to the weekbench binary unchanged; see
weekbench/README.md for the workloads and metrics.
"""

import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "weekbench")


def build(out_dir):
    """Configure (once) and build; returns the binary path or None."""
    os.makedirs(out_dir, exist_ok=True)
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", out_dir,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(out_dir, ignore_errors=True)
                return None
        jobs = str(min(4, os.cpu_count() or 1))
        done = subprocess.run(["cmake", "--build", out_dir, "-j", jobs],
                              stdout=sys.stderr)
        if done.returncode != 0:
            return None
    return os.path.join(out_dir, "weekbench")


def main():
    binary = build(build_dir())
    if binary is None:
        print("weekbench: build failed", file=sys.stderr)
        return 1
    # Become the benchmark, so that stopping this process stops the run.
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
