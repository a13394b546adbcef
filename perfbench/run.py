#!/usr/bin/env python3
"""Builds the scholarrank end-to-end benchmark from source and runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload offline_rank --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload stream_replay --seed 1 --seconds 10 --trace 1
    python3 perfbench/run.py --self-test

The library and the benchmark binary are compiled into .bench_build/perfbench
(CMake, Ninja when available). Generated inputs live in .bench_tmp/ for the
length of one run; --trace 1 writes trace.json (Chrome trace events) and
summary.json into .bench_trace/<workload>/. The last line of standard output
is the JSON result. Exits non-zero, without a result, when the repository
sources are missing or the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TMP_DIR = os.path.join(ROOT, ".bench_tmp")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
BINARY = os.path.join(BUILD_DIR, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("scholarrank sources (src/) not found next to perfbench/")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not build():
        log("build failed")
        return 1

    os.makedirs(TMP_DIR, exist_ok=True)
    name = "self-test" if args.self_test else args.workload
    work_dir = os.path.join(TMP_DIR, "%s-%d" % (name, os.getpid()))
    command = [BINARY, "--work-dir", work_dir]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--trace-dir", os.path.join(TRACE_DIR, args.workload)]
        os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
