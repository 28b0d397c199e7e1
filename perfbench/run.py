#!/usr/bin/env python3
"""Build the simulator's host-time benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload ga_island --seed 1 --seconds 30 \\
        --trace 0

The first run configures and builds perfbench/ (which builds ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs only
check that the build is current.  With --trace 0 the set-up phase is first
repeated in SETUP_RUNS separate set-up-only processes, and setup_s is the
median of those and the measuring process's own.  The last line of standard
output is the benchmark's JSON result; build output goes to standard error.
Spans and run reports are written under the build directory's out/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ga_island", "jacobi_cells", "nn_lossy_strict")
SETUP_RUNS = 6
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory):
    """Configure once, then bring the binary up to date.  Returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full "
                 "checkout of the repository")
    if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", directory,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", directory, "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(directory, "nscc_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    directory = build_dir()
    try:
        binary = build(directory)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        sys.exit(f"perfbench: build failed: {err}")
    out_dir = os.path.join(directory, "out")
    os.makedirs(out_dir, exist_ok=True)
    common = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
              "--golden-dir=" + os.path.join(HERE, "golden")]

    samples = []
    if args.trace == 0:
        for _ in range(SETUP_RUNS):
            done = subprocess.run(common + ["--setup-only"], cwd=ROOT,
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.exit("perfbench: set-up-only run failed")
            samples.append(json.loads(lines[-1])["setup_s"])

    run = subprocess.run(
        common + [f"--seconds={args.seconds}", f"--trace={args.trace}",
                  "--out-dir=" + out_dir,
                  "--setup-samples=" + ",".join(f"{s:.9f}" for s in samples)],
        cwd=ROOT, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
