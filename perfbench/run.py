#!/usr/bin/env python3
"""Builds and runs the UniStore end-to-end benchmark.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 45 --trace 0

Configures and builds perfbench/ (the UniStore libraries plus the benchmark
program, Release) under $CARGO_TARGET_DIR or .bench_build, then runs it with
the given arguments, with address-space randomisation off when setarch is
available. Build output goes to standard error, so the last line
of standard output is the program's JSON result. Exits non-zero, without a
result, if the build fails or the program does.
"""
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "unistore_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "unistore_perfbench")


def main():
    root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(root, "perfbench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    trace_dir = os.path.join(root, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary] + sys.argv[1:] + ["--trace-dir", trace_dir]
    # A fixed address-space layout makes host timings repeat more closely
    # from one process to the next.
    if shutil.which("setarch"):
        cmd = ["setarch", platform.machine(), "-R"] + cmd
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
