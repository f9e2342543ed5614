#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds the stagg library plus bench_e2e in
$CARGO_TARGET_DIR (default .bench_build); later calls only re-check the
build.  Build output goes to a log in the build directory, never to stdout,
so the last line of stdout is the benchmark's JSON result.  Scratch files go
to a fresh directory under .bench_work/ that is removed afterwards.  Exits
non-zero, printing no result, when the sources are missing or the build or
the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def build(build_dir: str) -> str:
    log_path = os.path.join(build_dir, "bench_e2e_build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "bench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "a", encoding="utf-8") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                with open(log_path, encoding="utf-8") as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                raise SystemExit(f"run.py: build failed (see {log_path})")
    return os.path.join(build_dir, "bench_e2e")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default="",
                        help="also write the full report (and spans) here")
    args = parser.parse_args()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                             or ".bench_build")
    binary = build(build_dir)

    workdir = os.path.join(ROOT, ".bench_work",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--workdir", workdir]
    if args.trace:
        cmd.append("--traced")
    if args.json:
        cmd += ["--json", args.json]
    try:
        return subprocess.run(cmd, check=False,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
