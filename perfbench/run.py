#!/usr/bin/env python3
"""Build and run the onfiber end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale <x>]

The first call configures and builds perfbench/ (the onfiber libraries
from src/ plus onfiber_perfbench) into .bench_build/perfbench; later calls
only let CMake check that the build is current. All arguments are
passed to onfiber_perfbench, whose last line of output is the JSON
result. The build log goes to .bench_build/perfbench/build.log and, on
failure, to stderr.

Exit status: onfiber_perfbench's (0 = every output check passed), or 2
when the sources are missing, the build fails or the run overruns its
time.
"""
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "onfiber_perfbench"
# The benchmark stops after --seconds plus one rep; this only
# catches a hang, inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(message, log=None):
    print(f"perfbench: {message}", file=sys.stderr)
    if log is not None and log.is_file():
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no onfiber sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    jobs = str(max(1, min(8, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                fail("build failed: " + " ".join(cmd), log)


def main():
    build()
    try:
        done = subprocess.run([str(BINARY), *sys.argv[1:]], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
