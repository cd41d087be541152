#!/usr/bin/env python3
"""Builds the hostbench binary from source and runs one workload.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The first run configures and builds into
.bench_build/hostbench (petastat's library plus the binary, RelWithDebInfo);
later runs only check that the build is current. Build output goes to
stderr; the binary's output, whose last line is the JSON result, goes to
stdout. Any extra arguments are passed to the binary (see README.md).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
SOURCE = ROOT / "hostbench"
BUILD = ROOT / ".bench_build" / "hostbench"
# The binary measures for --seconds and then replays; this caps a stuck run.
BINARY_TIMEOUT_S = 170


def build() -> bool:
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(SOURCE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD), "--target", "hostbench", "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    if not (ROOT / "CMakeLists.txt").is_file() or not build():
        print("hostbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--reference" not in args:
        args += ["--reference", str(SOURCE / "reference.txt")]
    try:
        return subprocess.run([str(BUILD / "hostbench"), *args],
                              timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("hostbench: binary timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
